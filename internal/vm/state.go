package vm

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/isa"
)

// Magic control-transfer addresses. Returning to ExitAddr completes the
// current entry-point invocation; returning to IntrRetAddr completes an
// injected interrupt and restores the interrupted context.
const (
	ExitAddr    uint32 = 0xFFFF_0000
	IntrRetAddr uint32 = 0xFFFF_0010
)

// Forkable is implemented by concrete environment state (the simulated
// kernel) that must be snapshotted when an execution state forks. Each
// execution state conceptually is "a complete system snapshot" (paper
// §4.1.2); guest memory forks by COW, and Forkable covers the host-side
// concrete structures.
type Forkable interface {
	// Fork returns a copy of the receiver. The two may share storage
	// copy-on-write, but neither observes the other's later writes. Forking
	// a frozen snapshot's environment (one nothing writes any more) must
	// not write it: fabric executors fork one snapshot concurrently.
	Fork() Forkable
	// RestoreFrom overwrites the receiver with a deep copy of src, a value
	// of the receiver's own type, reusing the receiver's storage. Neither
	// side shares mutable storage with the other afterwards.
	RestoreFrom(src Forkable)
}

// restoreInto returns a copy of src: src.Fork(), or src restored into dst
// when there is one to reuse.
func restoreInto(dst, src Forkable) Forkable {
	switch {
	case src == nil:
		return nil
	case dst == nil:
		return src.Fork()
	}
	dst.RestoreFrom(src)
	return dst
}

// Status describes why a state is no longer runnable.
type Status uint8

// State statuses.
const (
	StatusRunning Status = iota
	StatusExited         // returned from its entry point
	StatusKilled         // terminated by policy (e.g. failure return pruning)
	StatusBug            // a checker flagged a bug on this path
	StatusHalted         // executed HLT
	StatusInfeasible
)

func (st Status) String() string {
	switch st {
	case StatusRunning:
		return "running"
	case StatusExited:
		return "exited"
	case StatusKilled:
		return "killed"
	case StatusBug:
		return "bug"
	case StatusHalted:
		return "halted"
	case StatusInfeasible:
		return "infeasible"
	default:
		return "unknown"
	}
}

// intrFrame saves the full register context across an injected interrupt.
type intrFrame struct {
	regs [isa.NumRegs]uint32
	sym  [isa.NumRegs]*expr.Expr
	pc   uint32
}

// State is one execution state: registers, PC, COW memory, path
// constraints, and forked concrete environment. States form a tree; Fork
// produces a child, and the forking state carries on beside it.
type State struct {
	ID     uint64
	Parent uint64 // parent state ID, 0 for the root
	Status Status

	PC  uint32
	Mem *Memory

	// regs holds each register's concrete word; sym is its symbolic shadow,
	// nil while the value is concrete (the same split as page.data and
	// page.sym). An expression is built only when a symbolic value is
	// written, so concrete code runs on plain words. sym never holds a
	// constant node: SetReg unboxes constants into regs.
	regs [isa.NumRegs]uint32
	sym  [isa.NumRegs]*expr.Expr

	// Constraints is the path condition: the conjunction of branch
	// conditions and concretization equalities accumulated on this path.
	Constraints []*expr.Expr

	// model satisfies Constraints[:modelN] (unmapped symbols are zero); a
	// negative modelN means the path has no model. Constraints added since
	// are checked lazily (pathModel). Forks share the map read-only, so a
	// new model is always a new map.
	model  expr.Assignment
	modelN int

	// Kernel is the forked concrete environment.
	Kernel Forkable

	// ICount is the number of instructions executed on this path — the
	// deterministic "time" axis for the coverage figures.
	ICount uint64

	// Depth counts forks since the root.
	Depth int

	// intrStack holds saved contexts of interrupted execution.
	intrStack []intrFrame

	// InInterrupt reports how many interrupt contexts are active.
	InInterrupt int

	// EntryName names the driver entry point this state is executing,
	// for reports ("QueryInformation", "ISR", ...).
	EntryName string

	// Trace accumulates per-path events as a persistent chain.
	Trace *TraceNode

	// BlockStart marks that the next instruction begins a basic block: the
	// step loop emits an EvBlock event and fires the OnBlock hook before
	// executing it.
	BlockStart bool

	// lastBlock is the last block this path entered (Machine.FaultSite).
	lastBlock uint32

	// blocks is the per-path block-visit accounting behind the infinite-
	// loop heuristic (VisitBlock, LoopCount) and the fuzz executor's per-
	// execution coverage (BlockCount). It lives on the state, not in the
	// checker, so the checker keeps no shared bookkeeping, and no other
	// state shares its private table. Forks deliberately start with an
	// empty table and no layer: loop detection is per contiguous path
	// segment, and resetting at a fork only delays detection. A snapshot
	// resume continues the segment (ForkFrozen): the snapshot's counts are
	// a read-only layer the resumed table counts on top of, shared by every
	// resume. Layers are immutable once published, so executors sharing
	// one snapshot fabric read them concurrently without a lock. A
	// snapshot of a resumed path adds one layer over its base, so a chain
	// is as deep as the snapshots one walk takes (the fuzz executor's gate
	// nodes, DriverEntry and Initialize today) and is never flattened.
	blocks blockTable

	// PendFault is a fault raised asynchronously for this state by a hook
	// (e.g. the loop checker firing from OnBlock mid-step). The step loop
	// surfaces it on the state's next step, so the fault travels with the
	// state and is never attributed to a different path, however the
	// scheduler interleaves forks. Children inherit a pending fault: the
	// whole subtree shares the condition that raised it.
	PendFault *Fault
}

// NewState returns a root state with zeroed registers and empty memory.
func NewState(id uint64) *State {
	s := &State{ID: id, Mem: NewMemory(), Trace: &TraceNode{}}
	s.regs[isa.SP] = isa.StackBase
	return s
}

// cloneInto makes c a child of s carrying every inherited field, and
// returns it. c is either a new State or a finished state nothing else
// references any more (Machine.ResumeInto), whose kernel state,
// interrupt stack and block-table storage are reused. The memory and trace
// differ between the two fork flavours — Fork freezes the running parent
// onto fresh overlays, ForkFrozen forks a frozen parent in place — so the
// caller supplies them, and sets up the block table (Fork leaves it empty,
// ForkFrozen points it at the snapshot's layer). Everything else lives here
// exactly once, and every field of c is overwritten, so a new State field
// cannot be cloned by one flavour and silently dropped (or left stale) by
// another.
func (s *State) cloneInto(c *State, id uint64, mem *Memory, trace *TraceNode) *State {
	*c = State{
		ID:          id,
		Parent:      s.ID,
		PC:          s.PC,
		Mem:         mem,
		Constraints: s.Constraints[:len(s.Constraints):len(s.Constraints)],
		model:       s.model,
		modelN:      s.modelN,
		Kernel:      restoreInto(c.Kernel, s.Kernel),
		ICount:      s.ICount,
		Depth:       s.Depth + 1,
		intrStack:   append(c.intrStack[:0], s.intrStack...),
		InInterrupt: s.InInterrupt,
		EntryName:   s.EntryName,
		Trace:       trace,
		BlockStart:  s.BlockStart,
		lastBlock:   s.lastBlock,
		blocks:      c.blocks,
		PendFault:   s.PendFault,
		regs:        s.regs, // array copies
		sym:         s.sym,
	}
	return c
}

// Fork clones s into a child with the given ID. The shared memory and
// trace snapshots are frozen: both the child AND the (possibly still
// running) parent continue on fresh copy-on-write overlays, so neither can
// observe the other's subsequent writes. This matters for annotation and
// interrupt-injection forks, where the parent keeps executing. The child
// deliberately does NOT inherit the block counts (see State.blocks).
func (s *State) Fork(id uint64) *State {
	frozenMem := s.Mem
	s.Mem = frozenMem.Fork()
	var childTrace *TraceNode
	if frozenTrace := s.Trace; frozenTrace != nil {
		frozenTrace.frozen = true
		s.Trace = &TraceNode{parent: frozenTrace}
		childTrace = &TraceNode{parent: frozenTrace}
	}
	return s.cloneInto(new(State), id, frozenMem.Fork(), childTrace)
}

// ForkFrozen clones a frozen state into a fresh runnable child WITHOUT
// mutating the receiver. Fork pushes the (possibly still running) parent
// onto a new COW overlay so both sides can keep writing; ForkFrozen instead
// requires the receiver to be frozen — captured by Machine.SnapshotState and
// never stepped again — so every child can fork the same frozen memory and
// trace, and repeated resumes from one snapshot do not deepen the
// snapshot's own overlay chain. Unlike Fork, the child inherits the block
// counts: a snapshot resume continues the same contiguous path segment,
// and bit-identical replay of a cold execution (the persistent-mode fuzz
// executor's contract) needs the boot segment's loop counts. The child
// counts on top of the snapshot's read-only layer with an empty private
// table, so a resume costs the same whatever the boot's size, and the
// child's visits never write the snapshot's counts.
func (s *State) ForkFrozen(id uint64) *State { return s.forkFrozenInto(new(State), id) }

// forkFrozenInto is ForkFrozen writing the child into c: a new State, or a
// reusable finished one (Machine.ResumeInto) whose leaf memory overlay is
// re-parented onto the snapshot's memory.
func (s *State) forkFrozenInto(c *State, id uint64) *State {
	var childTrace *TraceNode
	if s.Trace != nil {
		// The receiver's trace was frozen when the snapshot was captured
		// (Machine.SnapshotState); ForkFrozen must not write to it — shared-
		// fabric snapshots are resumed from many goroutines concurrently.
		childTrace = &TraceNode{parent: s.Trace}
	}
	s.cloneInto(c, id, s.Mem.forkInto(c.Mem), childTrace)
	c.blocks.resume(s.blocks.base)
	return c
}

// VisitBlock counts one more visit of block pc on this path and returns
// the block's new visit count (the loop checker's one entry point). A
// count of 1 means the path segment entered pc for the first time.
func (s *State) VisitBlock(pc uint32) uint64 { return s.blocks.visit(pc) }

// LoopCount returns how often block pc was visited on this path segment.
func (s *State) LoopCount(pc uint32) uint64 { return s.blocks.count(pc) }

// BlockCount returns the number of distinct blocks visited on this path
// segment.
func (s *State) BlockCount() int { return s.blocks.distinct() }

// Retire releases pooled resources held by a state that no caller will
// touch again (a discarded fork sibling, the fuzz executor's kept state
// once a cold run replaced it). It is an optimization, never a
// correctness requirement: unreferenced states are collected either way,
// Retire just returns their overlay maps and block table to their pools
// and their pages to the page list of the machine the memory is bound to.
// Only leaf memory retires — Memory.Retire refuses if the overlay has
// forked children; a block table's private slots are never shared (its
// layers are, and stay with the snapshots that froze them). The page list
// is unlocked, so retire a state only on the goroutine that steps that
// machine's states (the fuzz executor retires on its own machine).
func (s *State) Retire() {
	if s == nil {
		return
	}
	s.Trace.recycle()
	s.Trace = nil
	s.Mem.Retire()
	s.blocks.release()
}

// DetachTrace removes and returns the state's trace chain so a caller can
// keep it past Retire: a detached leaf is no longer reachable from the
// state, so Retire cannot recycle its event storage out from under the
// harvested result. Returns nil when the state ran trace-free.
func (s *State) DetachTrace() *TraceNode {
	t := s.Trace
	s.Trace = nil
	return t
}

// AddConstraint appends a path constraint.
func (s *State) AddConstraint(e *expr.Expr) {
	s.Constraints = append(s.Constraints, e)
}

// pathModel returns a model of the whole path condition, first checking
// it against the constraints added since it was set; ok is false when the
// path has none.
func (s *State) pathModel() (m expr.Assignment, ok bool) {
	if s.modelN < 0 {
		return nil, false
	}
	for _, c := range s.Constraints[s.modelN:] {
		if expr.Eval(c, s.model) == 0 {
			s.modelN = -1
			return nil, false
		}
	}
	s.modelN = len(s.Constraints)
	return s.model, true
}

// setModel records m, which the caller no longer writes, as a model of
// the whole path condition.
func (s *State) setModel(m expr.Assignment) {
	s.model, s.modelN = m, len(s.Constraints)
}

// Reg returns register r as an expression, boxing a concrete word.
func (s *State) Reg(r uint8) *expr.Expr {
	if e := s.sym[r]; e != nil {
		return e
	}
	return expr.Const(s.regs[r])
}

// SetReg stores e into register r; a constant is stored as its word.
func (s *State) SetReg(r uint8, e *expr.Expr) {
	if e.IsConst() {
		s.regs[r], s.sym[r] = e.ConstVal(), nil
		return
	}
	s.regs[r], s.sym[r] = 0, e
}

// SetRegConcrete stores the concrete word v into register r.
func (s *State) SetRegConcrete(r uint8, v uint32) { s.regs[r], s.sym[r] = v, nil }

// RegConcrete returns the value of register r when it is concrete.
func (s *State) RegConcrete(r uint8) (uint32, bool) {
	if s.sym[r] != nil {
		return 0, false
	}
	return s.regs[r], true
}

// PushInterrupt saves the current context and transfers control to the
// interrupt service routine at isrPC. The saved context is restored when
// the ISR returns to IntrRetAddr.
func (s *State) PushInterrupt(isrPC uint32) {
	s.intrStack = append(s.intrStack, intrFrame{regs: s.regs, sym: s.sym, pc: s.PC})
	s.SetRegConcrete(isa.LR, IntrRetAddr)
	s.PC = isrPC
	s.InInterrupt++
}

// PopInterrupt restores the interrupted context. It reports false if no
// interrupt frame is active (a driver returning to IntrRetAddr without an
// injected interrupt — a wild jump).
func (s *State) PopInterrupt() bool {
	if len(s.intrStack) == 0 {
		return false
	}
	f := s.intrStack[len(s.intrStack)-1]
	s.intrStack = s.intrStack[:len(s.intrStack)-1]
	s.regs, s.sym = f.regs, f.sym
	s.PC = f.pc
	s.InInterrupt--
	return true
}

func (s *State) String() string {
	return fmt.Sprintf("state %d (pc=%#x, %s, %d constraints, depth %d)",
		s.ID, s.PC, s.Status, len(s.Constraints), s.Depth)
}
