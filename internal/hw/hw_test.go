package hw

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/binimg"
	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/solver"
	"repro/internal/vm"
)

func testMachine(t *testing.T) (*vm.Machine, *SymbolicDevice) {
	t.Helper()
	img, err := asm.Assemble(".entry e\n.text\ne: ret\n")
	if err != nil {
		t.Fatal(err)
	}
	img.Device = binimg.PCIDescriptor{VendorID: 1, DeviceID: 2, BARSize: 64, IOPorts: 8, IRQLine: 9}
	m := vm.NewMachine(img, expr.NewSymbolTable(), solver.New())
	dev := New(img.Device)
	dev.Attach(m)
	return m, dev
}

func TestReadsAreFreshSymbols(t *testing.T) {
	m, _ := testMachine(t)
	s := m.NewRootState()
	a := m.ReadDevice(s, isa.MMIOBase+0x10, 4)
	b := m.ReadDevice(s, isa.MMIOBase+0x10, 4)
	if a.IsConst() || b.IsConst() {
		t.Fatal("device reads must be symbolic")
	}
	if expr.Equal(a, b) {
		t.Error("two reads of the same register must be distinct symbols (hardware may change)")
	}
	if Of(s).RegReads != 2 {
		t.Errorf("read count = %d", Of(s).RegReads)
	}
}

func TestNarrowReadsAreMasked(t *testing.T) {
	m, _ := testMachine(t)
	s := m.NewRootState()
	b := m.ReadDevice(s, isa.MMIOBase, 1)
	// A byte-wide register read can never exceed 0xFF.
	model := expr.Assignment{}
	for _, id := range expr.Syms(b) {
		model[id] = 0xFFFFFFFF
	}
	if v := expr.Eval(b, model); v > 0xFF {
		t.Errorf("byte read evaluates to %#x", v)
	}
	p := m.ReadPort(s, 0x10)
	for _, id := range expr.Syms(p) {
		model[id] = 0xFFFFFFFF
	}
	if v := expr.Eval(p, model); v > 0xFFFF {
		t.Errorf("port read evaluates to %#x", v)
	}
}

func TestWritesAreDiscardedButRecorded(t *testing.T) {
	m, _ := testMachine(t)
	s := m.NewRootState()
	m.WriteDevice(s, isa.MMIOBase+0x20, 4, expr.Const(0xFF))
	m.WritePort(s, 0x07, expr.Const(1))
	ds := Of(s)
	if ds.RegWrites != 1 || ds.PortWrites != 1 {
		t.Errorf("write counts: %+v", ds)
	}
	if !ds.WroteRegister(0x20) {
		t.Error("register write not recorded")
	}
	if ds.WroteRegister(0x24) {
		t.Error("phantom register write")
	}
	// Reading back a written register still yields a fresh symbol: writes
	// are discarded (§3.3).
	v := m.ReadDevice(s, isa.MMIOBase+0x20, 4)
	if v.IsConst() {
		t.Error("write leaked into a read")
	}
}

func TestDeviceStateForks(t *testing.T) {
	m, _ := testMachine(t)
	s := m.NewRootState()
	m.WriteDevice(s, isa.MMIOBase, 4, expr.Const(1))
	child := Of(s).Fork().(*DeviceState)
	child.RegWrites++
	child.LastWrites = append(child.LastWrites, RegWrite{Addr: 0x99})
	if Of(s).RegWrites != 1 {
		t.Error("fork shares counters")
	}
	if Of(s).WroteRegister(0x99) {
		t.Error("fork shares write log")
	}
}

func TestWriteLogBounded(t *testing.T) {
	ds := &DeviceState{}
	for i := 0; i < 100; i++ {
		ds.recordWrite(RegWrite{Addr: uint32(i)})
	}
	if len(ds.LastWrites) > 32 {
		t.Errorf("write log grew to %d", len(ds.LastWrites))
	}
	// The most recent writes are retained.
	if !ds.WroteRegister(99) {
		t.Error("latest write evicted")
	}
}

func TestSymbolProvenance(t *testing.T) {
	m, _ := testMachine(t)
	s := m.NewRootState()
	e := m.ReadDevice(s, isa.MMIOBase+4, 4)
	ids := expr.Syms(e)
	if len(ids) != 1 {
		t.Fatalf("symbols = %v", ids)
	}
	info := m.Syms.Info(ids[0])
	if info.Origin != expr.OriginHardware {
		t.Errorf("origin = %v", info.Origin)
	}
}

// TestDeviceStateForkNoAliasing: forking the device half of a state
// snapshot must deep-copy the recent-write window — a snapshot-then-fork
// execution pattern appends writes on resumed children, and a shared
// backing array would let a child overwrite the frozen snapshot's
// post-mortem evidence.
func TestDeviceStateForkNoAliasing(t *testing.T) {
	parent := &DeviceState{RegReads: 3, PortWrites: 1}
	for i := 0; i < 5; i++ {
		parent.recordWrite(RegWrite{Addr: uint32(i), Seq: uint64(i)})
	}
	before := fmt.Sprintf("%+v", *parent)

	child := parent.Fork().(*DeviceState)
	child.RegReads = 100
	child.LastWrites[0].Addr = 0xDEAD // shared backing array would alias
	for i := 0; i < 40; i++ {
		child.recordWrite(RegWrite{Addr: 0xBEEF, Seq: 1000 + uint64(i)})
	}
	if got := fmt.Sprintf("%+v", *parent); got != before {
		t.Fatalf("mutating the fork changed the parent:\n%s\nvs\n%s", before, got)
	}
	if parent.WroteRegister(0xBEEF) || parent.WroteRegister(0xDEAD) {
		t.Fatal("child writes visible through the parent")
	}
}

// TestDeviceStateRestoreNoAliasing: restoring a device state that holds
// unrelated content (a longer recent-write window) from a snapshot's copy
// must give the snapshot's exact state, and afterwards neither side's
// recent-write window may show the other's writes.
func TestDeviceStateRestoreNoAliasing(t *testing.T) {
	src := &DeviceState{RegReads: 3, PortWrites: 1}
	for i := 0; i < 5; i++ {
		src.recordWrite(RegWrite{Addr: uint32(i), Seq: uint64(i)})
	}
	dst := &DeviceState{RegWrites: 9, Removed: true}
	for i := 0; i < 40; i++ {
		dst.recordWrite(RegWrite{Addr: 0x100 + uint32(i), Port: true})
	}
	srcBefore := fmt.Sprintf("%+v", *src)
	dst.RestoreFrom(src)
	if got := fmt.Sprintf("%+v", *dst); got != srcBefore {
		t.Fatalf("restore is not a faithful copy:\n%s\nvs\n%s", got, srcBefore)
	}

	dst.LastWrites[0].Addr = 0xDEAD
	for i := 0; i < 40; i++ {
		dst.recordWrite(RegWrite{Addr: 0xBEEF, Seq: 1000 + uint64(i)})
	}
	if got := fmt.Sprintf("%+v", *src); got != srcBefore {
		t.Fatalf("mutating the restored state changed the source:\n%s\nvs\n%s", srcBefore, got)
	}

	dst.RestoreFrom(src)
	dstBefore := fmt.Sprintf("%+v", *dst)
	src.LastWrites[0].Addr = 0xDEAD
	src.recordWrite(RegWrite{Addr: 0xBEEF})
	if got := fmt.Sprintf("%+v", *dst); got != dstBefore {
		t.Fatalf("mutating the source changed the restored state:\n%s\nvs\n%s", dstBefore, got)
	}
}
