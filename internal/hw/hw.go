// Package hw implements DDT's fake PCI device (§3.3, §4.1.4): the device
// whose descriptor tricks the PnP manager into loading the driver under
// test, whose register writes (memory-mapped or port I/O) are discarded,
// and whose register reads return what the device's Source supplies. No
// real device and no device model is needed. The symbolic engine answers
// each read with a fresh unconstrained symbol, so the driver explores every
// path its hardware could ever (or could never, for buggy silicon) take;
// the coverage-guided fuzzer answers it with the next word of a replayable
// feed, one concrete path per feed, orders of magnitude faster.
//
// The device keeps no per-path state. Surprise removal is kernel state
// (kernel.KState.Removed), which forks and restores with the path.
package hw

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// Source supplies the value of one register read of a present device:
// port reports port I/O, addr is the port number or the MMIO register
// offset. It returns a symbolic value, or a nil one and a concrete word;
// the device masks either to the access width.
//
// A feed-backed Source keeps its cursor itself, not in the state: one
// execution is one feed however often the state forks mid-path, so
// anything that snapshots a mid-workload state for later resumption
// captures the cursor alongside it (fuzz/snapshot.go).
type Source func(s *vm.State, port bool, addr uint32) (sym *expr.Expr, word uint32)

// Device is the fake PCI device of one machine.
type Device struct {
	Read Source
}

// New builds a device that answers register reads from read.
func New(read Source) *Device { return &Device{Read: read} }

// Symbols is the symbolic engine's Source: every read is a fresh symbol,
// minted by fresh and named after the register.
func Symbols(fresh func(s *vm.State, name string, origin expr.Origin) *expr.Expr) Source {
	return func(s *vm.State, port bool, addr uint32) (*expr.Expr, uint32) {
		return fresh(s, regName(port, addr), expr.OriginHardware), 0
	}
}

// Attach installs the device's MMIO and port hooks on the machine. Port
// accesses are 16 bits wide.
func (d *Device) Attach(m *vm.Machine) {
	m.ReadDevice = func(s *vm.State, addr, size uint32) *expr.Expr {
		return d.read(s, false, addr-isa.MMIOBase, size)
	}
	m.WriteDevice = func(s *vm.State, addr, size uint32, v *expr.Expr) {
		write(s, false, addr-isa.MMIOBase)
	}
	m.ReadPort = func(s *vm.State, port uint32) *expr.Expr { return d.read(s, true, port, 2) }
	m.WritePort = func(s *vm.State, port uint32, v *expr.Expr) { write(s, true, port) }
}

// read answers a size-byte register read. A removed device reads all ones,
// what the PCI bus returns for a vanished function, without consulting
// the Source: removed hardware has exactly one behaviour, so the engine
// mints no symbol and the fuzzer consumes no feed word there.
func (d *Device) read(s *vm.State, port bool, addr, size uint32) *expr.Expr {
	mask := uint32(0xFFFFFFFF)
	switch size {
	case 1:
		mask = 0xFF
	case 2:
		mask = 0xFFFF
	}
	if kernel.Of(s).Removed {
		return expr.Const(mask)
	}
	sym, word := d.Read(s, port, addr)
	switch {
	case sym == nil:
		return expr.Const(word & mask)
	case mask == 0xFFFFFFFF:
		return sym
	}
	return expr.And(sym, expr.Const(mask))
}

// write discards a register write, leaving an event in the path's trace
// (bug post-mortems: "the trace contained no writes to the interrupt
// control register", §5.1). The name is formatted only for a traced state.
func write(s *vm.State, port bool, addr uint32) {
	if s.Trace == nil {
		return
	}
	s.Trace.Append(vm.Event{
		Kind: vm.EvDevice, Seq: s.ICount, PC: s.PC, Addr: addr,
		Write: true, Name: regName(port, addr),
	})
}

// regName names a device register in symbols and trace events.
func regName(port bool, addr uint32) string {
	if port {
		return fmt.Sprintf("hw_port_%#x", addr)
	}
	return fmt.Sprintf("hw_mmio_%#x", addr)
}
