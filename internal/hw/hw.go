// Package hw implements DDT's fully symbolic hardware (§3.3, §4.1.4): a
// fake PCI device whose descriptor tricks the PnP manager into loading the
// driver under test, whose register reads (memory-mapped or port I/O)
// return fresh unconstrained symbolic values, and whose register writes are
// discarded. No real device and no device model is needed — symbolic reads
// make the driver explore every path its hardware could ever (or could
// never, for buggy silicon) take.
//
// Next to the symbolic mode lives a concrete-feed mode (ConcreteDevice): the
// same fake device with register reads answered from a replayable FeedSource
// stream instead of fresh symbols. The coverage-guided fuzzer drives drivers
// through it orders of magnitude faster than symbolic execution, at the cost
// of exploring one concrete path per feed.
package hw

import (
	"fmt"

	"repro/internal/binimg"
	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/vm"
)

// DeviceState is the tiny per-path device state (vm.Forkable). A symbolic
// device is almost stateless — writes are discarded — but we track the
// counts for traces and the interrupt line for the injection policy.
type DeviceState struct {
	RegReads   uint64
	RegWrites  uint64
	PortReads  uint64
	PortWrites uint64
	// Removed is set when the workload surprise-removes the device. From
	// then on every register read — MMIO or port, symbolic or concrete-feed
	// mode — returns all-ones, exactly what the PCI bus returns for a
	// vanished function; writes are discarded as always. The counters and
	// the recent-write window keep accounting so post-mortems still work.
	Removed bool
	// LastWrites keeps the most recent few register writes for bug-report
	// post-mortems ("the trace contained no writes to the interrupt
	// control register", §5.1).
	LastWrites []RegWrite
}

// RegWrite records one discarded device-register write.
type RegWrite struct {
	Addr uint32
	Port bool
	Seq  uint64
}

// Fork implements vm.Forkable: a restore into a zero value.
func (d *DeviceState) Fork() vm.Forkable {
	n := new(DeviceState)
	n.RestoreFrom(d)
	return n
}

// RestoreFrom overwrites d with a deep copy of src, a *DeviceState
// (vm.Forkable), reusing d's recent-write window.
func (d *DeviceState) RestoreFrom(f vm.Forkable) {
	src := f.(*DeviceState)
	w := append(d.LastWrites[:0], src.LastWrites...)
	*d = *src
	d.LastWrites = w
}

// Of extracts the device state attached to a vm state, creating it lazily.
func Of(s *vm.State) *DeviceState {
	if s.HW == nil {
		s.HW = &DeviceState{}
	}
	return s.HW.(*DeviceState)
}

// SymbolicDevice is the session-wide fake device bound to one driver image.
type SymbolicDevice struct {
	Desc binimg.PCIDescriptor
	// FreshSymbol mints provenance-tracked symbols; wired by the engine.
	FreshSymbol func(s *vm.State, name string, origin expr.Origin) *expr.Expr
}

// New builds a symbolic device from the image's PCI descriptor.
func New(desc binimg.PCIDescriptor) *SymbolicDevice {
	return &SymbolicDevice{Desc: desc}
}

// Attach installs the device's MMIO and port hooks on the machine.
func (d *SymbolicDevice) Attach(m *vm.Machine) {
	if d.FreshSymbol == nil {
		d.FreshSymbol = func(s *vm.State, name string, origin expr.Origin) *expr.Expr {
			return m.Syms.Fresh(name, origin, s.PC, s.ICount)
		}
	}
	m.ReadDevice = d.readMMIO
	m.WriteDevice = d.writeMMIO
	m.ReadPort = d.readPort
	m.WritePort = d.writePort
}

func (d *SymbolicDevice) readMMIO(s *vm.State, addr, size uint32) *expr.Expr {
	ds := Of(s)
	ds.RegReads++
	if ds.Removed {
		return removedRead(size)
	}
	sym := d.FreshSymbol(s, fmt.Sprintf("hw_mmio_%#x", addr-isa.MMIOBase), expr.OriginHardware)
	return maskForSize(sym, size)
}

// removedRead is the all-ones value a read of a surprise-removed device
// returns, masked to the access width. Deliberately concrete in both
// device modes: post-removal hardware has exactly one behaviour.
func removedRead(size uint32) *expr.Expr {
	switch size {
	case 1:
		return expr.Const(0xFF)
	case 2:
		return expr.Const(0xFFFF)
	default:
		return expr.Const(0xFFFFFFFF)
	}
}

// deviceWriteMMIO discards an MMIO register write, keeping the accounting
// (counters, recent-write window, trace event) shared by the symbolic and
// concrete-feed device modes — bug post-mortems rely on it being identical.
// The event's name is formatted only when the state carries a trace.
func deviceWriteMMIO(s *vm.State, addr uint32) {
	ds := Of(s)
	ds.RegWrites++
	ds.recordWrite(RegWrite{Addr: addr - isa.MMIOBase, Seq: s.ICount})
	if s.Trace == nil {
		return
	}
	s.Trace.Append(vm.Event{
		Kind: vm.EvDevice, Seq: s.ICount, PC: s.PC, Addr: addr - isa.MMIOBase,
		Write: true, Name: fmt.Sprintf("hw_mmio_%#x", addr-isa.MMIOBase),
	})
}

// deviceWritePort is deviceWriteMMIO's port-I/O counterpart.
func deviceWritePort(s *vm.State, port uint32) {
	ds := Of(s)
	ds.PortWrites++
	ds.recordWrite(RegWrite{Addr: port, Port: true, Seq: s.ICount})
	if s.Trace == nil {
		return
	}
	s.Trace.Append(vm.Event{
		Kind: vm.EvDevice, Seq: s.ICount, PC: s.PC, Addr: port,
		Write: true, Name: fmt.Sprintf("hw_port_%#x", port),
	})
}

func (d *SymbolicDevice) writeMMIO(s *vm.State, addr, size uint32, v *expr.Expr) {
	deviceWriteMMIO(s, addr)
}

func (d *SymbolicDevice) readPort(s *vm.State, port uint32) *expr.Expr {
	ds := Of(s)
	ds.PortReads++
	if ds.Removed {
		return removedRead(2)
	}
	return expr.ZeroExt16(d.FreshSymbol(s, fmt.Sprintf("hw_port_%#x", port), expr.OriginHardware))
}

func (d *SymbolicDevice) writePort(s *vm.State, port uint32, v *expr.Expr) {
	deviceWritePort(s, port)
}

func (ds *DeviceState) recordWrite(w RegWrite) {
	const keep = 32
	ds.LastWrites = append(ds.LastWrites, w)
	if len(ds.LastWrites) > keep {
		ds.LastWrites = ds.LastWrites[len(ds.LastWrites)-keep:]
	}
}

// WroteRegister reports whether the path ever wrote the given device
// register (used by bug analysis: "no writes to the interrupt control
// register ⇒ interrupts were never enabled").
func (ds *DeviceState) WroteRegister(off uint32) bool {
	for _, w := range ds.LastWrites {
		if !w.Port && w.Addr == off {
			return true
		}
	}
	return false
}

func maskForSize(e *expr.Expr, size uint32) *expr.Expr {
	switch size {
	case 1:
		return expr.ZeroExt8(e)
	case 2:
		return expr.ZeroExt16(e)
	default:
		return e
	}
}
