package fuzz

import (
	"fmt"
	"strings"

	"repro/internal/annot"
	"repro/internal/binimg"
	"repro/internal/campaign"
	"repro/internal/checkers"
	"repro/internal/exerciser"
	"repro/internal/expr"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/solver"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Options configure one concrete executor.
type Options struct {
	// Annotations mirrors the engine's annotation switch: with it on, the
	// same injection points (registry values, packet bytes, OIDs, alloc
	// failures) exist, answered from the feed instead of fresh symbols.
	Annotations bool
	// MaxStepsPerEntry bounds one entry invocation; exceeding it abandons
	// the execution (killed, not a bug).
	MaxStepsPerEntry uint64
	// MaxInterrupts bounds feed-scheduled interrupt injections per
	// execution.
	MaxInterrupts int
	// LoopThreshold is the infinite-loop heuristic's per-block repeat bound.
	LoopThreshold uint64
	// Registry overrides/extends the default registry hive.
	Registry map[string]uint32
	// Scenario selects the workload plan shape exactly as the engine's
	// Options.Scenario does ("" is the class default), so a feed converted
	// from a bug the engine found under a scenario replays on its plan.
	Scenario string `json:",omitempty"`
	// Persist enables persistent-mode execution: the executor snapshots the
	// state reached after DriverEntry and after a successful Initialize, and
	// serves later executions whose feeds share the consumed boot prefix by
	// forking the snapshot instead of re-running the boot phases; boots that
	// end the execution without a crash are memoized outright. Results are
	// bit-identical to cold execution (see snapshot.go for the soundness
	// argument and the determinism suite in persist_test.go for the proof).
	Persist bool
	// Fabric, when non-nil with Persist on, is the shared snapshot store
	// this executor publishes to and resumes from — the campaign wires one
	// fabric into every worker so the fleet cold-boots each prefix once.
	// Nil with Persist on gives the executor a private fabric (the pre-
	// fabric behaviour). Never serialized: a fabric holds live state.
	Fabric *SnapFabric `json:"-"`
	// NoSuperblocks disables the VM's superblock fast path on this
	// executor's machine. Execution is bit-identical either way (the
	// superblock determinism suite proves it); the switch exists for those
	// proofs and for the step-loop benchmarks.
	NoSuperblocks bool `json:",omitempty"`
	// LazyTrace runs executions trace-free: no TraceNode chain is built,
	// recorded, or allocated (ExecResult.Trace is nil). Execution is a pure
	// function of (feed, schedule), so the full chain for the rare feeds
	// that need one — crashes under triage, determinism comparisons — is
	// materialized on demand by RunTraced, an exact cold re-execution with
	// tracing on; the lazy-trace determinism suite proves the rematerialized
	// chain event-for-event identical to an eager one. Defaults on in
	// DefaultOptions: the fuzzer's hot path never looks at traces.
	LazyTrace bool
}

// DefaultOptions mirror the engine's workload configuration, with tighter
// step bounds: a fuzz execution is one path, so the budget per entry can be
// far below the symbolic exploration budget.
func DefaultOptions() Options {
	return Options{
		Annotations:      true,
		MaxStepsPerEntry: 30_000,
		MaxInterrupts:    4,
		LoopThreshold:    1_000,
		LazyTrace:        true,
	}
}

// Crash is one concrete failing execution, deduplicated by fault site and
// checker class, carrying its replayable feed.
//
// Crash is a wire type: workers report crashes to the campaign manager
// (internal/manager) as JSON, so the field tags below are a stable format —
// wire_test.go pins them against silent drift.
type Crash struct {
	// Class is the Table 2 bug category (checkers.Classify).
	Class string `json:"class"`
	// RawClass is the checker's fault class ("memory", "crash", "leak", ...).
	RawClass string `json:"raw_class"`
	// PC is the fault site.
	PC uint32 `json:"pc"`
	// Msg is the fault message.
	Msg string `json:"msg"`
	// Site is the fault site the crash is keyed by (vm.Machine.FaultSite):
	// PC inside driver text, otherwise the last block the execution entered.
	Site uint32 `json:"site"`
	// Entry names the workload entry being exercised when the fault fired.
	Entry string `json:"entry"`
	// InInterrupt reports whether the fault fired inside an injected ISR.
	InInterrupt bool `json:"in_interrupt,omitempty"`
	// Feed replays the crash deterministically through an Executor.
	Feed *Feed `json:"feed,omitempty"`
	// Exec is the global execution index at discovery.
	Exec uint64 `json:"exec"`
	// Reproduced is set once the fuzzer re-executed the feed and hit the
	// same fault site again.
	Reproduced bool `json:"reproduced"`
}

// Key is the deduplication identity, campaign.FindingKey: one crash per
// class and site, the key core.Bug.Key gives the same bug.
func (c *Crash) Key() string { return campaign.FindingKey(c.Class, c.Site) }

func (c *Crash) String() string {
	return fmt.Sprintf("[%s] %s (entry %s, pc %#x)", c.Class, c.Msg, c.Entry, c.PC)
}

// ExecResult is the outcome of one feed execution.
type ExecResult struct {
	// Crash is non-nil when the execution ended in a fault.
	Crash *Crash
	// NewBlocks counts basic blocks this execution discovered in the shared
	// coverage map — the corpus-admission novelty signal.
	NewBlocks int
	// Blocks counts distinct blocks entered during this execution.
	Blocks int
	// Steps is the instruction count of this execution.
	Steps uint64
	// Entries lists the workload entries that ran.
	Entries []string
	// ConsumedData/ConsumedForks/ConsumedIRQ report how much of the feed the
	// execution actually read; trailing bytes beyond that are dead weight.
	ConsumedData  int
	ConsumedForks int
	ConsumedIRQ   int
	// Warm reports that this execution resumed from a persistent-mode
	// snapshot (Options.Persist) instead of re-running the boot phases.
	Warm bool
	// SkippedSteps counts the boot instructions a warm execution avoided
	// re-executing. Steps still reports the full logical workload cost —
	// identical to a cold execution of the same feed — so corpus accounting
	// and coverage timelines do not depend on the execution mode.
	SkippedSteps uint64
	// Trace is the executed path's event chain (the final state's trace).
	// Warm executions chain through the snapshot's recorded boot trace, so
	// the event sequence equals a cold execution's — the determinism suite
	// compares them event by event. Nil under Options.LazyTrace: use
	// RunTraced to materialize the chain by exact re-execution.
	Trace *vm.TraceNode
}

// Executor runs driver workloads fully concretely from feeds. It owns one
// machine and kernel, reused across executions; it is not safe for
// concurrent use — the worker pool gives each worker its own executor and
// shares only the (thread-safe) coverage recorder.
type Executor struct {
	img  *binimg.Image
	opts Options
	cov  *exerciser.Coverage

	// plan is the workload this executor walks, built once; env lends the
	// plan's argument builders the feed-answering kernel.
	plan workload.Plan
	env  workload.Env
	next []int // scratch for the edge targets route chooses among

	// TimeBase supplies the global instruction-count offset for coverage
	// series sampling (the fuzzer wires the fleet-wide step counter here).
	TimeBase func() uint64

	m    *vm.Machine
	k    *kernel.Kernel
	mem  *checkers.MemoryChecker
	leak checkers.LeakChecker

	reader    feedReader
	loop      checkers.LoopChecker
	stepsBase uint64 // logical boot steps a snapshot resume skipped
	curNew    int
	covBatch  []uint32 // first-seen block PCs awaiting one shared-map Merge
	eligBound uint64   // persistent mode: triggers below this could have fired

	// snaps is the persistent-mode snapshot fabric (nil when Persist is
	// off): either the campaign-shared fabric from Options.Fabric or a
	// private one. Snapshots are immutable and resumes fork frozen state,
	// so sharing across executors is safe; execID attributes this
	// executor's lookups in the fabric's hit/shared-hit split.
	snaps  *SnapFabric
	execID uint64

	// kept is the final state of the last execution, private to the
	// executor: the next warm execution restores its snapshot into it in
	// place (vm.Machine.ResumeInto) instead of cloning the snapshot. It is
	// valid only until the next Run, and no ExecResult points into it.
	kept *vm.State
}

// NewExecutor builds an executor for the image. cov may be nil (coverage
// still counted per execution, no global novelty).
func NewExecutor(img *binimg.Image, cov *exerciser.Coverage, opts Options) *Executor {
	e := &Executor{img: img, opts: opts, cov: cov}
	e.m = vm.NewMachine(img, expr.NewSymbolTable(), solver.New())
	e.k = kernel.New(e.m)
	e.loop.Threshold = opts.LoopThreshold
	e.mem = checkers.NewMemoryChecker()
	e.mem.Install(e.m)
	hw.New(e.deviceRead).Attach(e.m)
	if opts.Annotations {
		annot.InstallAll(e.k)
	}
	e.k.SymbolPolicy = e.symbolPolicy
	e.k.ForkPolicy = e.forkPolicy
	e.plan = workload.Build(img, opts.Scenario)
	e.env = workload.Env{K: e.k, Annotations: opts.Annotations}
	if opts.NoSuperblocks {
		e.m.DisableSuperblocks = true
	}
	if opts.LazyTrace {
		e.m.DisableTrace = true
	}
	if opts.Persist {
		e.snaps = opts.Fabric
		if e.snaps == nil {
			e.snaps = NewSnapFabric()
		}
		e.execID = e.snaps.register()
	}
	// The execution's block set is its state's block table: an execution
	// is one path that never forks (annotation forks are decided on the
	// live state by forkPolicy, interrupts are injected in place, and a
	// snapshot resume inherits the boot segment's counts), so the blocks
	// with a non-zero count are exactly the blocks it entered.
	e.m.OnBlock = func(s *vm.State, pc uint32) {
		n, err := e.loop.Visit(s, pc)
		// Batched coverage: first-seen blocks accumulate locally and hit the
		// shared map in one Merge per execution (flushCoverage) instead of
		// one mutex round-trip per block. Merge dedups against the global
		// map atomically, so novelty attribution (NewBlocks) is what
		// per-block Visit calls would have produced.
		if n == 1 && e.cov != nil {
			e.covBatch = append(e.covBatch, pc)
		}
		if err != nil {
			if f, ok := err.(*vm.Fault); ok {
				s.PendFault = f
			}
		}
	}
	return e
}

// flushCoverage publishes the execution's first-seen blocks to the shared
// coverage map in one call, crediting any fleet-novel ones to curNew. Must
// run before NewBlocks is read off the execution.
func (e *Executor) flushCoverage() {
	if len(e.covBatch) == 0 {
		return
	}
	e.curNew += e.cov.Merge(e.covBatch, e.now())
	e.covBatch = e.covBatch[:0]
}

// steps is the execution's logical instruction count so far: what its
// machine stepped since Run reset it, plus the boot steps a snapshot
// resume skipped.
func (e *Executor) steps() uint64 {
	return e.m.Steps + e.stepsBase
}

func (e *Executor) now() uint64 {
	t := e.steps()
	if e.TimeBase != nil {
		t += e.TimeBase()
	}
	return t
}

// deviceRead is the device's hw.Source: each read consumes a feed word.
func (e *Executor) deviceRead(s *vm.State, port bool, addr uint32) (*expr.Expr, uint32) {
	return nil, e.reader.word()
}

// clampWord maps a raw feed word to the value range the symbolic engine's
// path constraints allow at the same injection site, so the fuzzer cannot
// manufacture inputs the symbolic workload rules out (the soundness
// requirement of §7 — e.g. a packet length beyond the allocated payload
// would be a false positive). The bridge shares this function: LiftFeed
// applies it before pinning engine symbols, and encodeWord is its inverse
// for bridging solved values back into feeds. Keep the three in sync.
func clampWord(name string, origin expr.Origin, v uint32) uint32 {
	switch {
	case strings.HasPrefix(name, "packet_len"):
		return 14 + v%51 // engine constrains 14 <= len <= 64
	case origin == expr.OriginRegistry:
		return v & 0x7FFFFFFF // engine constrains symb >= 0 (signed)
	case strings.HasPrefix(name, "packet_byte_") || strings.HasPrefix(name, "sample_"):
		return v & 0xFF
	}
	return v
}

// encodeWord inverts clampWord where the clamp is not the identity on
// solved engine values, so a bridged feed replays the exact witness input
// (clampWord(encodeWord(v)) == v for every value a satisfying model can
// assign: registry values are already non-negative, byte symbols are used
// masked on both sides).
func encodeWord(name string, v uint32) uint32 {
	if strings.HasPrefix(name, "packet_len") && v >= 14 && v <= 64 {
		return v - 14
	}
	return v
}

// symbolPolicy answers every would-be symbolic injection from the feed.
func (e *Executor) symbolPolicy(s *vm.State, name string, origin expr.Origin) *expr.Expr {
	return expr.Const(clampWord(name, origin, e.reader.word()))
}

// forkPolicy decides annotation forks (alternative API outcomes) from the
// feed's fork stream.
func (e *Executor) forkPolicy(s *vm.State, api string) bool {
	return e.reader.forkBit()
}

// maybeInject delivers a scheduled interrupt at the first eligible instant
// at or past its trigger. Eligibility mirrors the engine's injection rules:
// an ISR must be registered, no interrupt context may be active, and the
// entry must not be at its exit instant (the engine never injects there;
// an interrupt at the next entry's first instruction shares that count).
//
// In persistent mode it additionally maintains eligBound, the exclusive
// upper bound on trigger values that could still fire in the executed
// segment: an instant is injection-eligible independently of any pending
// trigger, so a snapshot knows that a candidate feed's unconsumed trigger
// at or past the bound can never fire before the snapshot point — the
// exact validity rule for interrupt schedules (snapshot.matches).
//
// It returns the instant's injection eligibility as it stands after any
// injection it performed. Every eligibility factor — ISR registration,
// interrupt context, IRQL, injection budget — only changes at span-ending
// events (API calls, injections, interrupt returns, phase transitions), so
// the returned value holds for every instant a following StepSpan dispatch
// executes through, and the caller can maintain eligBound across a whole
// span with one post-dispatch update.
func (e *Executor) maybeInject(s *vm.State) bool {
	ks := kernel.Of(s)
	trig, ok := e.reader.nextIRQ()
	pending := ok && s.ICount >= trig && ks.Interrupts < e.opts.MaxInterrupts
	if !pending && e.snaps == nil {
		return false
	}
	eligible := ks.ISRRegistered && s.InInterrupt == 0 && ks.IRQL < kernel.DeviceLevel &&
		ks.Interrupts < e.opts.MaxInterrupts && s.PC != vm.ExitAddr
	if eligible && e.snaps != nil {
		e.eligBound = s.ICount + 1
	}
	if !pending || !eligible {
		return eligible
	}
	e.reader.takeIRQ()
	e.k.InjectInterrupt(s)
	// The injection flipped the eligibility factors (interrupt context
	// active, IRQL raised); re-evaluate for the instants that follow.
	return ks.ISRRegistered && s.InInterrupt == 0 && ks.IRQL < kernel.DeviceLevel &&
		ks.Interrupts < e.opts.MaxInterrupts && s.PC != vm.ExitAddr
}

// Run executes one feed through the full workload chain and reports the
// outcome. Execution is deterministic in the feed, and — with Persist on —
// independent of whether it ran cold or resumed from a snapshot.
func (e *Executor) Run(feed *Feed) *ExecResult {
	e.reader.reset(feed)
	e.m.Steps = 0
	e.stepsBase = 0
	e.curNew = 0
	e.covBatch = e.covBatch[:0]
	e.eligBound = 0

	// Room for one entry per plan node: the entry log rarely grows past it.
	res := &ExecResult{Entries: make([]string, 0, len(e.plan))}
	var fin *vm.State
	if sn := e.lookupSnapshot(feed); sn != nil {
		res.Warm = true
		res.SkippedSteps = sn.steps
		if sn.stage == stageTerminal {
			return e.serveMemo(sn, feed, res)
		}
		e.resumeFrom(sn, feed, res)
		s := e.m.ResumeInto(e.kept, sn.state)
		fin = e.walk(s, e.route(s, sn.node), res)
	} else {
		fin = e.walk(workload.Boot(e.m, e.img, workload.Registry(e.opts.Registry)), 0, res)
	}

	e.flushCoverage()
	res.NewBlocks = e.curNew
	res.Steps = e.steps()
	res.ConsumedData, res.ConsumedForks, res.ConsumedIRQ = e.reader.consumed()
	if fin != nil {
		res.Blocks = fin.BlockCount()
		// The harvested trace chain must outlive the state, which becomes
		// the kept state the next warm execution restores into. A kept
		// state this execution did not reuse (a cold run, or one that could
		// not be restored into) is retired.
		res.Trace = fin.DetachTrace()
		if fin != e.kept {
			e.kept.Retire()
			e.kept = fin
		}
	}
	return res
}

// RunTraced executes one feed exactly like Run but guarantees the result
// carries the full trace chain, whatever Options.LazyTrace says. Under lazy
// tracing it re-enables trace recording and runs the feed cold — snapshot
// lookup AND recording are bypassed, so trace-carrying states never enter
// the (trace-free) snapshot fabric and the chain covers the whole workload
// from boot. Execution is a pure function of the feed, so every other
// result field matches the trace-free run of the same feed bit for bit.
func (e *Executor) RunTraced(feed *Feed) *ExecResult {
	if !e.opts.LazyTrace {
		return e.Run(feed)
	}
	snaps := e.snaps
	e.snaps = nil
	e.m.DisableTrace = false
	res := e.Run(feed)
	e.m.DisableTrace = true
	e.snaps = snaps
	return res
}

// lookupSnapshot returns the deepest valid snapshot for the feed, or nil
// for a cold run (always nil with Persist off).
func (e *Executor) lookupSnapshot(feed *Feed) *snapshot {
	if e.snaps == nil {
		return nil
	}
	return e.snaps.best(feed, e.execID)
}

// resumeFrom restores the executor's per-execution context to the snapshot
// point: feed cursors, eligibility bound, entry log. Per-exec coverage,
// the last block entered and the interrupt budget travel in the resumed
// state (its block counts, State and KState).
func (e *Executor) resumeFrom(sn *snapshot, feed *Feed, res *ExecResult) {
	e.reader.resumeAt(feed, sn.words, sn.forkBits, sn.irqs)
	e.stepsBase = sn.steps
	e.eligBound = sn.eligBound
	res.Entries = append(res.Entries, sn.entries...)
}

// serveMemo concludes an execution whose entire outcome was decided by a
// memoized boot prefix, without executing anything. Every field matches
// what a cold execution of the feed would report: the recording run marked
// the boot blocks in the shared coverage map, so a cold replay would find
// no novelty in them either, and the consumed-byte cursors are recomputed
// against this feed's own stream lengths.
func (e *Executor) serveMemo(sn *snapshot, feed *Feed, res *ExecResult) *ExecResult {
	res.Blocks = sn.blocks
	res.NewBlocks = 0
	res.Steps = sn.steps
	res.Entries = append(res.Entries, sn.entries...)
	res.Trace = sn.trace
	res.ConsumedData, res.ConsumedForks = clampCursors(feed, sn.words, sn.forkBits)
	res.ConsumedIRQ = sn.irqs
	return res
}

// recordSnapshot captures a resumable snapshot of s after the gate at plan
// node i.
func (e *Executor) recordSnapshot(i int, s *vm.State, res *ExecResult) {
	if e.snaps == nil {
		return
	}
	stage := stageInitialized
	if i == 0 {
		stage = stageBooted
	}
	sn := e.captureContext(stage, res)
	sn.node = i
	sn.owner = e.execID
	sn.state = e.m.SnapshotState(s)
	e.snaps.add(sn)
}

// recordTerminal memoizes an execution whose workload ended at (or before)
// the boot phases without crashing: the boot prefix alone decided the
// whole result, so later feeds sharing it can skip execution entirely.
func (e *Executor) recordTerminal(s *vm.State, res *ExecResult) {
	if e.snaps == nil || res.Crash != nil {
		return
	}
	sn := e.captureContext(stageTerminal, res)
	sn.owner = e.execID
	if s != nil {
		sn.trace = s.Trace
		sn.blocks = s.BlockCount()
	}
	e.snaps.add(sn)
}

// captureContext snapshots the executor's per-execution replay context —
// the semantic feed cursors, the effective consumed streams, and the entry
// log — common to resumable and terminal snapshots.
func (e *Executor) captureContext(stage snapStage, res *ExecResult) *snapshot {
	r := &e.reader
	f := r.feed
	dataN, forkN := clampCursors(f, r.words, r.forkBits)
	sn := &snapshot{
		stage:     stage,
		words:     r.words,
		forkBits:  r.forkBits,
		irqs:      r.irq,
		data:      append([]byte(nil), f.Data[:dataN]...),
		forks:     make([]byte, forkN),
		irq:       append([]uint64(nil), f.IRQ[:r.irq]...),
		steps:     e.steps(),
		eligBound: e.eligBound,
		entries:   append([]string(nil), res.Entries...),
	}
	for j := 0; j < forkN; j++ {
		sn.forks[j] = f.Forks[j] & 1
	}
	return sn
}

// walk drives s through the workload plan from node i on the execution's
// single path and returns the state the execution ended on. Nodes whose
// entry is not registered are skipped; the drain node runs once per queued
// DPC, up to workload.MaxDPCRounds. A crash or kill ends the execution, and
// so does a gate that does not run and return success. After each passed
// gate the state is snapshotted (persistent mode); a failed gate's outcome
// is a pure function of the consumed boot prefix, so it is memoized as a
// terminal snapshot.
func (e *Executor) walk(s *vm.State, i int, res *ExecResult) *vm.State {
	for ; i >= 0; i = e.route(s, i) {
		n := &e.plan[i]
		visits := 1
		if n.Drain {
			visits = workload.MaxDPCRounds
		}
		passed := !n.Gate
		for v := 0; v < visits && n.Applies(s); v++ {
			name, pc, args := n.Enter(e.env, s)
			var ok bool
			var status uint32
			if s, ok, status = e.runEntry(s, name, pc, args.List(), res); !ok {
				if n.Gate {
					e.recordTerminal(s, res)
				}
				return s
			}
			passed = !n.Gate || status == kernel.StatusSuccess
		}
		if !passed {
			e.recordTerminal(s, res)
			return s
		}
		if n.Gate {
			e.recordSnapshot(i, s, res)
		}
	}
	return s
}

// route picks the plan node the execution moves on to after node i, or -1
// when it leaves the plan. Where several edges apply, the feed's fork
// stream picks one: a bit per edge from the last edge down to the second,
// the first set bit taking its edge and the first edge taken otherwise —
// on the storage graph, surprise removal, then suspend, else cancellation.
// Mutating the fork stream therefore walks every scenario branch.
func (e *Executor) route(s *vm.State, i int) int {
	e.next = e.plan.Next(e.next[:0], i, s)
	if len(e.next) == 0 {
		return -1
	}
	for j := len(e.next) - 1; j > 0; j-- {
		if e.reader.forkBit() {
			return e.next[j]
		}
	}
	return e.next[0]
}

// runEntry invokes one entry and steps it to completion. It returns the
// state the path ended on (which may be a forked successor of s), false
// when the execution is over (crash or kill), and the entry's status.
func (e *Executor) runEntry(s *vm.State, name string, pc uint32, args []*expr.Expr, res *ExecResult) (*vm.State, bool, uint32) {
	if pc == 0 {
		return s, true, kernel.StatusSuccess
	}
	res.Entries = append(res.Entries, name)
	e.k.InvokeSym(s, name, pc, args...)
	start := s.ICount
	for s.Status == vm.StatusRunning {
		if s.ICount-start >= e.opts.MaxStepsPerEntry {
			s.Status = vm.StatusKilled
			return s, false, 0
		}
		elig := e.maybeInject(s)
		// Span budget: run straight-line code in one dispatch up to the next
		// per-instruction decision point — the entry step bound, or the next
		// pending interrupt trigger (its injection instant must be a dispatch
		// boundary so maybeInject sees it exactly when a per-instruction loop
		// would). A trigger at or before the current instant never caps: it
		// either just fired or is blocked by an eligibility factor that
		// cannot change mid-span.
		budget := e.opts.MaxStepsPerEntry - (s.ICount - start)
		if trig, ok := e.reader.nextIRQ(); ok && kernel.Of(s).Interrupts < e.opts.MaxInterrupts && trig > s.ICount {
			if d := trig - s.ICount; d < budget {
				budget = d
			}
		}
		icount := s.ICount
		next, err := e.m.StepSpan(s, budget)
		// Every instant the dispatch executed through shared the eligibility
		// maybeInject returned (eligibility only changes at span enders), so
		// one update rolls eligBound forward over the whole span: the last
		// pre-instruction instant was ICount-1, making ICount the exclusive
		// bound — exactly what a per-instruction loop would have left.
		if elig && e.snaps != nil && s.ICount > icount {
			e.eligBound = s.ICount
		}
		// A loop fault raised by OnBlock travels on the state itself.
		if err == nil && s.PendFault != nil {
			err = s.PendFault
			s.PendFault = nil
			s.Status = vm.StatusBug
		}
		if err != nil {
			e.recordCrash(s, name, err, res)
			return s, false, 0
		}
		switch len(next) {
		case 0:
			// terminal
		case 1:
			s = next[0]
		default:
			// Concrete execution cannot fork; if it ever does (a stray
			// symbolic value), the execution ends killed, as at the step
			// bound. Following either side would lose the path's block
			// counts, which a fork restarts.
			for _, n := range next {
				n.Status = vm.StatusKilled
				n.Retire()
			}
			s.Status = vm.StatusKilled
			return s, false, 0
		}
	}
	if s.Status != vm.StatusExited {
		return s, false, 0
	}
	status, ok := s.RegConcrete(isa.R0)
	if !ok {
		status = 0
	}
	// Entry-exit checks: leaks fire here, exactly as in the engine.
	if err := e.leak.CheckEntryExit(s, name, status); err != nil {
		e.recordCrash(s, name, err, res)
		return s, false, 0
	}
	// Normalize carried context between phases, as the workload does.
	ks := kernel.Of(s)
	ks.InDpc = false
	ks.IRQL = kernel.PassiveLevel
	s.Status = vm.StatusRunning
	return s, true, status
}

func (e *Executor) recordCrash(s *vm.State, entry string, err error, res *ExecResult) {
	f, ok := err.(*vm.Fault)
	if !ok {
		f = vm.Faultf("engine", s.PC, "%v", err)
	}
	res.Crash = &Crash{
		Class:       checkers.Classify(f, s),
		RawClass:    f.Class,
		PC:          f.PC,
		Site:        e.m.FaultSite(s, f.PC),
		Msg:         f.Msg,
		Entry:       entry,
		InInterrupt: s.InInterrupt > 0,
	}
}
