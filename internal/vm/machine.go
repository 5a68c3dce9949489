package vm

import (
	"fmt"

	"repro/internal/binimg"
	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/solver"
)

// Fault is a bug condition raised on an execution path, either by the VM
// itself (wild jumps, invalid instructions) or by a registered checker
// vetoing an access. The engine converts faults into bug reports carrying
// the path trace.
type Fault struct {
	Class string // e.g. "memory", "spinlock", "irql", "crash", "leak", "loop"
	Msg   string
	PC    uint32
}

func (f *Fault) Error() string {
	return fmt.Sprintf("%s fault at pc=%#x: %s", f.Class, f.PC, f.Msg)
}

// Faultf builds a Fault.
func Faultf(class string, pc uint32, format string, args ...any) *Fault {
	return &Fault{Class: class, PC: pc, Msg: fmt.Sprintf(format, args...)}
}

// Machine interprets d32 driver code symbolically. The driver text runs in
// the symbolic domain; CALLs into the import trap window cross to the
// concrete domain (the simulated kernel) via the APICall hook — the
// selective-symbolic-execution boundary.
//
// A Machine holds the decoded image, the symbol table, the solver and the
// hook wiring, all of which are immutable once execution starts, and the
// step loop's own mutable half: the step and fork counts, the successor
// slot and the page list retired states recycle into. A Machine is stepped
// by one goroutine at a time: parallel campaigns give each worker a
// Machine of its own.
//
// All hooks are optional except APICall (required once the driver calls an
// import). Hooks must be wired before execution begins.
type Machine struct {
	Img    *binimg.Image
	Syms   *expr.SymbolTable
	Solver *solver.Solver

	// APICall dispatches an import-table call. It may modify s, fork it
	// (returning extra runnable states), or raise a Fault.
	APICall func(s *State, slot int) ([]*State, error)

	// Symbolic-hardware hooks: MMIO window and port I/O.
	ReadDevice  func(s *State, addr uint32, size uint32) *expr.Expr
	WriteDevice func(s *State, addr uint32, size uint32, v *expr.Expr)
	ReadPort    func(s *State, port uint32) *expr.Expr
	WritePort   func(s *State, port uint32, v *expr.Expr)

	// OnMemAccess is consulted for every driver load/store outside the MMIO
	// window. A non-nil error fails the path with a bug.
	OnMemAccess func(s *State, pc, addr, size uint32, write bool, v *expr.Expr) error

	// PinAddress chooses the concrete value for a symbolic effective
	// address. DDT's memory checker installs an adversarial pinner that
	// prefers values proving an out-of-bounds access feasible (the Klee
	// behaviour of checking a symbolic pointer against all objects). When
	// nil, addresses concretize like any other value.
	PinAddress func(s *State, addr *expr.Expr, size uint32, write bool) (uint32, bool)

	// OnBlock is invoked when execution enters a basic block (coverage).
	OnBlock func(s *State, pc uint32)

	// OnFork is invoked after a two-way symbolic branch with both sides.
	// parent is the branching state, which carries on as the taken side,
	// children[0]; children[1] is its one fork, the not-taken side.
	OnFork func(parent *State, children []*State, cond *expr.Expr)

	// OnInterruptReturn is invoked after an injected interrupt context is
	// popped (the kernel restores the pre-interrupt IRQL here).
	OnInterruptReturn func(s *State)

	// DisableSuperblocks forces per-instruction dispatch even when a
	// caller steps with a budget (StepSpan). Used by the bit-identity
	// suites and benchmarks to compare the two paths; semantics must be
	// identical either way.
	DisableSuperblocks bool

	// DisableTrace starts root states with a nil trace chain, so no trace
	// events are recorded or allocated anywhere on the path (TraceNode
	// methods are nil-safe). Execution semantics are unaffected — a trace
	// is pure observation — which is what lets the fuzz executor run
	// trace-free by default and rematerialize a chain by exact
	// re-execution with tracing on (fuzz.Options.LazyTrace).
	DisableTrace bool

	instrs    []isa.Instr
	decodeErr []error

	// uops[i] is the pre-lowered span micro-op for instruction i,
	// computed once from the immutable image.
	uops []uop

	// spanLen[i] is the length of the straight-line span starting at
	// instruction index i: the number of consecutive validly-decoded,
	// non-control-flow instructions from i before the next branch, jump,
	// call, return, HLT, or decode error. Derived once from the immutable
	// decoded image in NewMachine.
	// A span never contains a block entry past its first instruction, so
	// the fast path (runSpan) owes hooks nothing until it ends or bails.
	spanLen []uint32

	// Steps counts the instructions executed on this machine, including
	// the one about to run when OnBlock fires. Forks counts the states
	// forked on it: symbolic branches and ForkState.
	Steps uint64
	Forks uint64

	// nextID is the last state ID minted; one goroutine steps a machine.
	nextID uint64

	// slot backs every single-successor step result (only), so the common
	// dispatch allocates nothing. See Step for the lifetime contract this
	// imposes.
	slot [1]*State

	// pages recycles the pages of leaf overlays retired on this machine
	// (Retire) into the next copy-on-write of a state it steps.
	pages pageList
}

// only returns the one-element successor slice [s], backed by the
// machine's slot.
func (m *Machine) only(s *State) []*State {
	m.slot[0] = s
	return m.slot[:1:1]
}

// NewMachine decodes the image and prepares an interpreter.
func NewMachine(img *binimg.Image, syms *expr.SymbolTable, sol *solver.Solver) *Machine {
	n := len(img.Text) / isa.InstrSize
	m := &Machine{
		Img:       img,
		Syms:      syms,
		Solver:    sol,
		instrs:    make([]isa.Instr, n),
		decodeErr: make([]error, n),
	}
	for i := 0; i < n; i++ {
		m.instrs[i], m.decodeErr[i] = isa.Decode(img.Text[i*isa.InstrSize:])
	}
	// Straight-line span table, computed backwards in one pass: an
	// instruction extends the span of its successor unless it ends a block
	// itself. Control flow (branches, JMP/JR, CALL/CALLR, RET, HLT) and
	// undecodable slots get length 0 and always take the general path.
	m.spanLen = make([]uint32, n)
	for i := n - 1; i >= 0; i-- {
		if m.decodeErr[i] != nil || m.instrs[i].Op.IsControlFlow() {
			continue
		}
		if i == n-1 {
			m.spanLen[i] = 1
		} else {
			m.spanLen[i] = m.spanLen[i+1] + 1
		}
	}
	m.uops = make([]uop, n)
	for i := 0; i < n; i++ {
		if m.decodeErr[i] != nil {
			m.uops[i] = uop{fn: uopGeneral}
			continue
		}
		m.uops[i] = lowerUop(&m.instrs[i])
	}
	return m
}

// Retire retires s into this machine's page list; call it only on the
// goroutine stepping the machine.
func (m *Machine) Retire(s *State) {
	s.Mem.free = &m.pages
	s.Retire()
}

// NewRootState allocates the initial state with the image loaded.
func (m *Machine) NewRootState() *State {
	s := NewState(m.newID())
	if m.DisableTrace {
		s.Trace = nil
	}
	s.Mem.WriteBytes(isa.ImageBase, m.Img.Text)
	s.Mem.WriteBytes(m.Img.DataBase(), m.Img.Data)
	// bss is implicitly zero.
	return s
}

func (m *Machine) newID() uint64 {
	m.nextID++
	return m.nextID
}

// ForkState clones s with a fresh ID (used by kernel annotations that fork
// over alternative API results) and counts the fork.
func (m *Machine) ForkState(s *State) *State {
	m.Forks++
	return s.Fork(m.newID())
}

// SnapshotState freezes a deep snapshot of s mid-run and returns it. The
// running state continues on a fresh COW overlay, exactly as after a Fork;
// the snapshot is never stepped — it exists to serve ResumeState children.
// Unlike ForkState it does not count toward the fork statistics (a snapshot
// is a replay optimization, not an explored branch), and the snapshot keeps
// the path's block counts so resumed children replay exactly as the
// original path would have continued: it freezes only the blocks the
// running state counts privately, as a read-only layer over the running
// state's base layer, so a capture costs the blocks visited since the
// path's last resume, not the whole boot. The running state keeps its own
// counts untouched.
func (m *Machine) SnapshotState(s *State) *State {
	snap := s.Fork(m.newID())
	snap.blocks.base = s.blocks.freeze()
	// Freeze the snapshot's trace node now, while capture is still
	// single-threaded: every ForkFrozen resume hangs a child off it, and
	// with a shared fabric those resumes run concurrently — the flag must
	// be set before the snapshot is published, not by the resumers.
	if snap.Trace != nil {
		snap.Trace.frozen = true
	}
	return snap
}

// ResumeState clones a frozen snapshot into a fresh runnable state. The
// snapshot itself is not mutated, so any number of executions can resume
// from it without deepening its overlay chain (State.ForkFrozen). The clone
// is rebound to this machine's page list immediately: the snapshot may
// have been recorded by another executor (shared snapshot fabric), and its
// memory must not take pages from the recorder's page list before the first
// Step rebinds it.
func (m *Machine) ResumeState(snap *State) *State { return m.ResumeInto(nil, snap) }

// ResumeInto is ResumeState restoring the snapshot into dst in place: a
// finished state of this machine that nothing references any more (the
// fuzz executor keeps its last execution's final state for this). dst's
// leaf memory overlay, kernel and device state keep their storage and are
// overwritten from the snapshot; its block table keeps its private slots,
// emptied, and counts on top of the snapshot's layer. The snapshot is
// still never written: the only shared field the restore touches is the
// fork count of the snapshot's frozen memory. A nil dst, or one whose
// memory overlay has forked children or was retired, is replaced by a new
// State. The resumed state is returned.
func (m *Machine) ResumeInto(dst, snap *State) *State {
	if dst == nil || !dst.Mem.reusable() {
		dst = new(State)
	}
	s := snap.forkFrozenInto(dst, m.newID())
	s.Mem.free = &m.pages
	return s
}

// inText reports whether pc addresses a decoded instruction.
func (m *Machine) inText(pc uint32) bool {
	return pc >= isa.ImageBase && pc < isa.ImageBase+uint32(len(m.instrs))*isa.InstrSize &&
		(pc-isa.ImageBase)%isa.InstrSize == 0
}

// Concretize pins a symbolic expression to a concrete value consistent with
// the path constraints, records the concretization (so traces can explain
// it and replays reproduce it), and adds the equality constraint. This is
// the paper's on-demand concretization at the symbolic/concrete boundary.
func (m *Machine) Concretize(s *State, e *expr.Expr, what string) (uint32, error) {
	if e.IsConst() {
		return e.ConstVal(), nil
	}
	model := m.Solver.Model(s.Constraints)
	if model == nil && len(s.Constraints) > 0 {
		return 0, Faultf("engine", s.PC, "cannot concretize %s: path constraints unsolvable", what)
	}
	val := expr.Eval(e, model)
	s.AddConstraint(expr.Eq(e, expr.Const(val)))
	s.setModel(model) // it satisfies the equality it chose
	s.Trace.Append(Event{
		Kind: EvConcretize, Seq: s.ICount, PC: s.PC,
		Val: expr.Const(val), Name: what,
	})
	return val, nil
}

// MarkBlockStart flags that the next step of s begins a basic block
// (entry-point invocation, branch target, post-call resumption).
func (m *Machine) MarkBlockStart(s *State) {
	s.BlockStart = true
}

func (m *Machine) enterBlock(s *State) {
	s.Trace.Append(Event{Kind: EvBlock, Seq: s.ICount, PC: s.PC})
	s.lastBlock = s.PC
	if m.OnBlock != nil {
		m.OnBlock(s, s.PC)
	}
	s.BlockStart = false
}

// FaultSite is the site every mode keys a finding by: pc inside driver
// text, otherwise the last block the path entered (a wild jump faults at
// its target, a failed entry exit at ExitAddr; the bug lies before).
func (m *Machine) FaultSite(s *State, pc uint32) uint32 {
	if pc >= isa.ImageBase && pc < isa.ImageBase+uint32(len(m.Img.Text)) {
		return pc
	}
	return s.lastBlock
}

// Step executes one instruction of s and returns the runnable successor
// states. Usually that is s itself; a two-way symbolic branch returns s,
// carrying on as the taken side, and its one fork, the not-taken side;
// termination returns none, with s.Status and, for bugs, the returned Fault
// explaining why.
//
// A single-successor result is backed by storage the machine owns, so the
// returned slice is valid only until the next step on this machine:
// consume it (or copy it) before stepping again. Multi-successor results
// are freshly allocated. StepSpan follows the same contract.
//
// A fault left pending on the state by a hook (State.PendFault, e.g. the
// loop checker firing from OnBlock) is surfaced before anything else runs,
// so the fault stays attributed to the exact state that raised it however
// the scheduler interleaves paths.
func (m *Machine) Step(s *State) ([]*State, error) {
	return m.step(s, 1)
}

// StepSpan executes at least one and at most budget instructions of s in a
// single dispatch. Callers that interleave per-instruction work (interrupt
// injection instants, path budgets) pass the distance to their next
// decision point; semantics are bit-identical to calling Step budget times
// with no interleaved work. A budget of 0 is treated as 1.
func (m *Machine) StepSpan(s *State, budget uint64) ([]*State, error) {
	return m.step(s, budget)
}

func (m *Machine) step(s *State, budget uint64) ([]*State, error) {
	if s.Status != StatusRunning {
		return nil, nil
	}
	s.Mem.free = &m.pages
	if f := s.PendFault; f != nil {
		s.PendFault = nil
		s.Status = StatusBug
		return nil, f
	}
	m.Steps++

	// Magic return addresses.
	switch s.PC {
	case ExitAddr:
		s.Status = StatusExited
		s.Trace.Append(Event{Kind: EvEntryDone, Seq: s.ICount, Name: s.EntryName})
		return nil, nil
	case IntrRetAddr:
		if !s.PopInterrupt() {
			s.Status = StatusBug
			return nil, Faultf("memory", s.PC, "return to interrupt context with no active interrupt")
		}
		s.Trace.Append(Event{Kind: EvInterruptEnd, Seq: s.ICount})
		if m.OnInterruptReturn != nil {
			m.OnInterruptReturn(s)
		}
		m.MarkBlockStart(s)
		return m.only(s), nil
	}

	if !m.inText(s.PC) {
		s.Status = StatusBug
		return nil, Faultf("memory", s.PC, "execution outside driver text (wild jump)")
	}
	idx := (s.PC - isa.ImageBase) / isa.InstrSize
	if err := m.decodeErr[idx]; err != nil {
		s.Status = StatusBug
		return nil, Faultf("memory", s.PC, "invalid instruction: %v", err)
	}

	if s.BlockStart {
		m.enterBlock(s)
		if s.PendFault != nil {
			// The block hook raised a fault (loop checker). Per-instruction
			// semantics execute exactly one more instruction before the
			// next dispatch surfaces it — a span must not run past that.
			budget = 1
		}
	}

	if budget > 1 && !m.DisableSuperblocks && m.spanLen[idx] > 1 {
		return m.runSpan(s, idx, budget)
	}

	in := m.instrs[idx]
	s.ICount++
	return m.exec(s, in)
}

// Run steps s until the path stops or maxSteps instructions execute,
// following the first successor at every fork. It returns the state the
// path ended on (which may differ from s after forks), the sibling states
// produced by forks (for a scheduler to explore), and the Fault if the path
// ended in a bug.
func (m *Machine) Run(s *State, maxSteps uint64) (final *State, forked []*State, fault error) {
	start := s.ICount
	cur := s
	for cur.Status == StatusRunning {
		if cur.ICount-start >= maxSteps {
			cur.Status = StatusKilled
			return cur, forked, nil
		}
		next, err := m.StepSpan(cur, maxSteps-(cur.ICount-start))
		if err != nil {
			return cur, forked, err
		}
		switch len(next) {
		case 0:
			return cur, forked, nil
		case 1:
			cur = next[0]
		default:
			forked = append(forked, next[1:]...)
			cur = next[0]
		}
	}
	return cur, forked, nil
}
