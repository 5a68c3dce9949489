// Package checkers implements DDT's VM-level dynamic checkers (§3.1.1):
// the memory access verifier with region grants, the resource-leak
// detector, the infinite-loop heuristic, and the bug classifier that turns
// raw faults plus trace context into the categories of Table 2 (race
// condition, memory corruption, segmentation fault, resource leak, kernel
// crash).
//
// Guest-OS-level checks (§3.1.2) live in the kernel package: IRQL rules,
// spinlock ownership, pool sanity — our Driver Verifier analogue — and
// surface as "crash" faults through the BugCheck hook.
package checkers

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// MemoryChecker validates every driver memory access against the regions
// the kernel granted (§3.1.1's list): image, current stack above SP,
// kernel globals, dynamic allocations, packets, shared memory.
type MemoryChecker struct {
	// NullPageLimit: accesses below this address are null-pointer
	// dereferences regardless of grants.
	NullPageLimit uint32
	// Vetoes counts rejected accesses (stats).
	Vetoes uint64
}

// NewMemoryChecker returns a checker with the conventional 4 KiB null page.
func NewMemoryChecker() *MemoryChecker {
	return &MemoryChecker{NullPageLimit: 0x1000}
}

// Check validates one access; Install wires it as the machine hook.
func (c *MemoryChecker) Check(s *vm.State, pc, addr, size uint32, write bool) error {
	if addr < c.NullPageLimit || addr+size < addr {
		c.Vetoes++
		return vm.Faultf("memory", pc, "null-pointer dereference: %s of %d bytes at %#x",
			rw(write), size, addr)
	}
	ks := kernel.Of(s)

	// Stack rule: accesses to the stack region are legal only at or above
	// the current stack pointer — locations below SP can be overwritten by
	// an interrupt handler saving context (§3.1.1).
	stackLo := isa.StackBase - isa.StackSize
	if addr >= stackLo && addr < isa.StackBase {
		sp, ok := s.RegConcrete(isa.SP)
		if ok && addr < sp {
			c.Vetoes++
			return vm.Faultf("memory", pc, "%s below the stack pointer (addr %#x < sp %#x)",
				rw(write), addr, sp)
		}
		return nil
	}

	r, ok := ks.FindRegion(addr, size)
	if !ok {
		c.Vetoes++
		return vm.Faultf("memory", pc, "%s of %d bytes at unmapped address %#x (no grant covers it)",
			rw(write), size, addr)
	}
	if write && !r.Writable {
		c.Vetoes++
		return vm.Faultf("memory", pc, "write to read-only %s region at %#x", r.Kind, addr)
	}
	if r.Pageable && ks.IRQL >= kernel.DispatchLevel {
		c.Vetoes++
		return vm.Faultf("irql", pc, "pageable memory touched at %s (addr %#x)",
			kernel.IrqlName(ks.IRQL), addr)
	}
	return nil
}

// Install wires the checker into the machine, including the adversarial
// address pinner: a symbolic effective address is pinned, when feasible, to
// a value that escapes every grant — the way Klee validates a symbolic
// pointer against all memory objects. The subsequent access check then
// raises the bug with a concrete, solver-backed witness address.
func (c *MemoryChecker) Install(m *vm.Machine) {
	m.OnMemAccess = func(s *vm.State, pc, addr, size uint32, write bool, _ *expr.Expr) error {
		return c.Check(s, pc, addr, size, write)
	}
	m.PinAddress = func(s *vm.State, addr *expr.Expr, size uint32, write bool) (uint32, bool) {
		probe := func(lo, hi uint32) (uint32, bool) {
			if lo >= hi {
				return 0, false
			}
			cs := append(s.Constraints[:len(s.Constraints):len(s.Constraints)],
				expr.UGe(addr, expr.Const(lo)),
				expr.ULt(addr, expr.Const(hi)))
			if model := m.Solver.Model(cs); model != nil {
				return expr.Eval(addr, model), true
			}
			return 0, false
		}
		// Null page first (the classic dereference).
		if v, ok := probe(0, c.NullPageLimit); ok {
			return v, true
		}
		// The address gaps around the image: below the image, between the
		// image and the stack, between the stack and the heap, and between
		// the heap limit and the MMIO window. An address that can land in
		// any of them escapes every possible grant.
		imageHi := isa.ImageBase
		if r, ok := kernel.Of(s).FindRegion(isa.ImageBase, 4); ok {
			imageHi = r.Hi
		}
		gaps := [][2]uint32{
			{isa.KGlobals + isa.KGlobalsSz, isa.ImageBase},
			{imageHi, isa.StackBase - isa.StackSize},
			{isa.StackBase, isa.HeapBase},
			{isa.HeapLimit, isa.MMIOBase},
		}
		for _, g := range gaps {
			if v, ok := probe(g[0], g[1]); ok {
				return v, true
			}
		}
		return 0, false // fall back to benign concretization
	}
}

func rw(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// LeakChecker detects resources still held when they must not be: after a
// failed Initialize (the driver must undo partial setup) and after Halt
// (everything must be released). This is Table 2's resource-leak class.
type LeakChecker struct{}

// CheckEntryExit inspects the kernel state when an entry point returns.
// entry is the entry-point name; status is the driver's return value.
func (LeakChecker) CheckEntryExit(s *vm.State, entry string, status uint32) error {
	ks := kernel.Of(s)
	// Returning to the kernel with a spinlock held is always a bug,
	// whatever the entry point.
	if held := ks.HeldSpinlocks(); len(held) > 0 {
		return vm.Faultf("spinlock", s.PC,
			"entry %s returned with spinlock %#x still held", entry, held[0])
	}
	mustBeClean := entry == "Halt" || (entry == "Initialize" && status != kernel.StatusSuccess)
	if !mustBeClean {
		return nil
	}
	reason := "after Halt"
	if entry == "Initialize" {
		reason = fmt.Sprintf("after failed initialization (status %#x)", status)
	}
	if open := ks.OpenConfigHandles(); len(open) > 0 {
		h := open[0]
		return vm.Faultf("leak", h.PC, "configuration handle from %s (opened at pc %#x) not closed %s",
			h.Label, h.PC, reason)
	}
	if live := ks.LiveAllocs(); len(live) > 0 {
		a := live[0]
		tag := a.Tag
		if tag == "" {
			tag = fmt.Sprintf("tag%08x", a.PoolTag)
		}
		return vm.Faultf("leak", a.PC, "%d allocation(s) not freed %s (first: %s %q, %d bytes, allocated at pc %#x)",
			len(live), reason, a.Kind, tag, a.Size, a.PC)
	}
	if pkts := ks.LivePacketList(); len(pkts) > 0 {
		return vm.Faultf("leak", pkts[0].PC, "%d packet(s) not returned to their pool %s (first allocated at pc %#x)",
			len(pkts), reason, pkts[0].PC)
	}
	return nil
}

// LoopChecker is the path-based infinite-loop heuristic (§3.1.1 cites
// [34]): a basic block revisited far more often than any new coverage
// appears on the same path indicates the driver is stuck (polling a
// hardware register that symbolic hardware will never change, waiting on a
// flag an interrupt should set, ...).
// The visit counts live on the state itself (vm.State.VisitBlock), not in
// the checker: a terminated state's accounting dies with it — no shared
// map, no Forget bookkeeping, no cross-path attribution.
type LoopChecker struct {
	// Threshold is the per-block repeat count that triggers the report.
	Threshold uint64
}

// NewLoopChecker returns a checker with the given repeat threshold.
func NewLoopChecker(threshold uint64) *LoopChecker {
	return &LoopChecker{Threshold: threshold}
}

// Visit records a block entry and returns the block's visit count on the
// path, with a fault when the count reaches the threshold. Forks reset the
// count (vm.State.Fork does not carry the block counts): loop detection is
// per contiguous path segment, which only delays detection. A count of 1
// marks the path's first entry into pc, which the fuzz executor reads as
// per-execution coverage.
func (c *LoopChecker) Visit(s *vm.State, pc uint32) (uint64, error) {
	n := s.VisitBlock(pc)
	if n >= c.Threshold {
		return n, vm.Faultf("loop", pc, "basic block %#x executed %d times on one path without progress (infinite loop / hang)",
			pc, n)
	}
	return n, nil
}

// Classify maps a raw fault plus its execution context to the bug taxonomy
// of Table 2. Faults raised while an injected interrupt context is active
// (or while running the ISR entry) are race conditions: the failure needs a
// particular interrupt interleaving to manifest.
func Classify(f *vm.Fault, s *vm.State) string {
	if s != nil && (s.InInterrupt > 0 || s.EntryName == "ISR" || s.EntryName == "HandleInterrupt") {
		return "race condition"
	}
	switch f.Class {
	case "memory":
		// Null dereferences fault immediately (the hardware traps);
		// out-of-bounds writes silently corrupt state first.
		if strings.Contains(f.Msg, "null-pointer") {
			return "segmentation fault"
		}
		if strings.Contains(f.Msg, "write") {
			return "memory corruption"
		}
		return "segmentation fault"
	case "leak":
		return "resource leak"
	case "crash":
		return "kernel crash"
	case "deadlock":
		return "deadlock"
	case "irql":
		return "kernel crash"
	case "spinlock":
		return "kernel crash"
	case "loop":
		return "hang"
	default:
		return f.Class
	}
}
