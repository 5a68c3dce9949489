package hw

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/solver"
	"repro/internal/vm"
)

// testMachine builds a machine with a device answering reads from src (the
// symbolic Source when src is nil) and a booted root state.
func testMachine(t *testing.T, src Source) (*vm.Machine, *vm.State) {
	t.Helper()
	img, err := asm.Assemble(".entry e\n.text\ne: ret\n")
	if err != nil {
		t.Fatal(err)
	}
	m := vm.NewMachine(img, expr.NewSymbolTable(), solver.New())
	if src == nil {
		src = Symbols(func(s *vm.State, name string, origin expr.Origin) *expr.Expr {
			return m.Syms.Fresh(name, origin, s.PC, s.ICount)
		})
	}
	New(src).Attach(m)
	s := m.NewRootState()
	s.Kernel = kernel.NewKState()
	return m, s
}

func TestReadsAreFreshSymbols(t *testing.T) {
	m, s := testMachine(t, nil)
	a := m.ReadDevice(s, isa.MMIOBase+0x10, 4)
	b := m.ReadDevice(s, isa.MMIOBase+0x10, 4)
	if a.IsConst() || b.IsConst() {
		t.Fatal("device reads must be symbolic")
	}
	if expr.Equal(a, b) {
		t.Error("two reads of the same register must be distinct symbols (hardware may change)")
	}
}

func TestNarrowReadsAreMasked(t *testing.T) {
	m, s := testMachine(t, nil)
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

// TestFeedReadsAreMasked: a concrete Source's word is masked to the access
// width, and the Source sees the register offset, not the bus address.
func TestFeedReadsAreMasked(t *testing.T) {
	var seen []uint32
	m, s := testMachine(t, func(s *vm.State, port bool, addr uint32) (*expr.Expr, uint32) {
		seen = append(seen, addr)
		return nil, 0x12345678
	})
	for _, c := range []struct {
		got  *expr.Expr
		want uint32
	}{
		{m.ReadDevice(s, isa.MMIOBase+0x8, 1), 0x78},
		{m.ReadDevice(s, isa.MMIOBase+0x8, 2), 0x5678},
		{m.ReadDevice(s, isa.MMIOBase+0x8, 4), 0x12345678},
		{m.ReadPort(s, 0x10), 0x5678},
	} {
		if !c.got.IsConst() || c.got.ConstVal() != c.want {
			t.Errorf("read = %v, want %#x", c.got, c.want)
		}
	}
	if len(seen) != 4 || seen[0] != 0x8 || seen[3] != 0x10 {
		t.Errorf("source saw registers %#x", seen)
	}
}

// TestRemovedDeviceReadsAllOnes: once the kernel state marks the device
// removed, every read in either mode is all ones at its width, and the
// Source is not consulted (no symbol minted, no feed word consumed).
func TestRemovedDeviceReadsAllOnes(t *testing.T) {
	calls := 0
	feed := func(s *vm.State, port bool, addr uint32) (*expr.Expr, uint32) {
		calls++
		return nil, 0
	}
	for _, src := range []Source{nil, feed} {
		m, s := testMachine(t, src)
		kernel.Of(s).Removed = true
		syms := m.Syms.Len()
		for _, c := range []struct {
			got  *expr.Expr
			want uint32
		}{
			{m.ReadDevice(s, isa.MMIOBase+0x4, 1), 0xFF},
			{m.ReadDevice(s, isa.MMIOBase+0x4, 2), 0xFFFF},
			{m.ReadDevice(s, isa.MMIOBase+0x4, 4), 0xFFFFFFFF},
			{m.ReadPort(s, 0x10), 0xFFFF},
		} {
			if !c.got.IsConst() || c.got.ConstVal() != c.want {
				t.Errorf("removed read = %v, want %#x", c.got, c.want)
			}
		}
		if m.Syms.Len() != syms {
			t.Error("a removed read minted a symbol")
		}
	}
	if calls != 0 {
		t.Errorf("a removed read consumed %d feed words", calls)
	}
}

func TestWritesAreDiscardedButRecorded(t *testing.T) {
	m, s := testMachine(t, nil)
	m.WriteDevice(s, isa.MMIOBase+0x20, 4, expr.Const(0xFF))
	m.WritePort(s, 0x07, expr.Const(1))
	var writes []vm.Event
	for _, ev := range s.Trace.Path() {
		if ev.Kind == vm.EvDevice && ev.Write {
			writes = append(writes, ev)
		}
	}
	if len(writes) != 2 || writes[0].Addr != 0x20 || writes[0].Name != "hw_mmio_0x20" ||
		writes[1].Addr != 0x07 || writes[1].Name != "hw_port_0x7" {
		t.Errorf("write events = %+v", writes)
	}
	// Reading back a written register still yields a fresh symbol: writes
	// are discarded (§3.3).
	v := m.ReadDevice(s, isa.MMIOBase+0x20, 4)
	if v.IsConst() {
		t.Error("write leaked into a read")
	}
}

func TestSymbolProvenance(t *testing.T) {
	m, s := testMachine(t, nil)
	e := m.ReadDevice(s, isa.MMIOBase+4, 4)
	ids := expr.Syms(e)
	if len(ids) != 1 {
		t.Fatalf("symbols = %v", ids)
	}
	info := m.Syms.Info(ids[0])
	if info.Origin != expr.OriginHardware || info.Name != "hw_mmio_0x4" {
		t.Errorf("symbol = %+v", info)
	}
}
