package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

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

// Options configure one DDT run. The campaign envelope (workers, stop
// conditions, wall-clock bound, shared coverage) is the embedded
// campaign.Options — the same envelope fuzz.Config and ddt.Config embed —
// and the remaining fields are the symbolic engine's own knobs.
//
// Envelope semantics for the symbolic engine: Workers 0 or 1 runs the
// engine sequentially, bit-identical to the pre-parallel engine; N>1 pops
// the frontier from N workers, each with its own vm.ExecContext and solver
// over one shared query cache — the explored path SET is then
// schedule-dependent, but every reported bug remains a sound,
// solver-witnessed path, and completed paths are canonically ordered by
// state ID before KeepStates selection. Every worker count walks the
// workload phase by phase: a phase's paths all finish before the next
// phase starts. Duration bounds the whole TestDriver session.
// Seed and MaxExecs are accepted for envelope uniformity and unused here.
type Options struct {
	campaign.Options
	// Annotations enables the stock NDIS/WDM annotation sets. Off is DDT's
	// default mode (§3.4); the §5.1 ablation toggles this.
	Annotations bool
	// SymbolicInterrupts injects forked interrupt deliveries at
	// kernel/driver boundary crossings once an ISR is registered.
	SymbolicInterrupts bool
	// VerifierChecks enables the in-guest Driver Verifier-style checks.
	VerifierChecks bool
	// MaxStates caps the exploration frontier per phase.
	MaxStates int
	// MaxStepsPerPath bounds one path's instruction count per entry.
	MaxStepsPerPath uint64
	// MaxPathsPerEntry bounds completed paths per entry phase.
	MaxPathsPerEntry int
	// MaxIntrInjections bounds interrupt injections per path.
	MaxIntrInjections uint64
	// KeepStates is how many successful outcomes seed the next phase.
	KeepStates int
	// LoopThreshold is the infinite-loop heuristic's per-block repeat bound.
	LoopThreshold uint64
	// Registry overrides/extends the default registry hive.
	Registry map[string]uint32
	// ConcreteHardware replaces symbolic hardware with a deterministic
	// concrete device model (register reads return a fixed pattern). This
	// is how the Driver Verifier baseline runs: concrete stress testing
	// with in-guest checks only.
	ConcreteHardware bool
	// SymbolSeed, when non-nil, pins the first symbols minted on each path
	// to a concrete input prefix (see kernel.Kernel.SymbolSeed).
	// fuzz.LiftFeed builds one from a fuzz feed, so the engine follows that
	// concrete path and forks outward from it.
	SymbolSeed func(idx uint64, name string, origin expr.Origin) (uint32, bool)
	// Scenario selects the workload plan shape: "" picks the class default
	// (the PnP/power scenario graph for storage-class drivers, the linear
	// plan otherwise), ScenarioLinear forces the degenerate linear plan,
	// ScenarioPnP forces the scenario graph where the driver class
	// registers PnP/power dispatch handlers (storage; other classes fall
	// back to their linear plan).
	Scenario string
}

// Scenario values for Options.Scenario.
const (
	ScenarioLinear = workload.ScenarioLinear
	ScenarioPnP    = workload.ScenarioPnP
)

// DefaultOptions mirror the paper's configuration: annotations on,
// symbolic interrupts on, Driver Verifier cooperating.
func DefaultOptions() Options {
	return Options{
		Annotations:        true,
		SymbolicInterrupts: true,
		VerifierChecks:     true,
		MaxStates:          512,
		MaxStepsPerPath:    60_000,
		MaxPathsPerEntry:   256,
		MaxIntrInjections:  2,
		KeepStates:         2,
		LoopThreshold:      2_000,
	}
}

// Engine is one DDT testing session bound to a driver image.
type Engine struct {
	Img  *binimg.Image
	Opts Options

	M    *vm.Machine
	K    *kernel.Kernel
	Dev  *hw.SymbolicDevice
	Mem  *checkers.MemoryChecker
	Loop *checkers.LoopChecker
	Leak checkers.LeakChecker

	Sched *exerciser.Scheduler
	Cov   *exerciser.Coverage

	// cache is the shared solver query cache: the root solver and every
	// parallel worker's solver answer through it.
	cache *solver.Cache

	// workers are the parallel workers' execution contexts, built once, each
	// with a private solver over cache; nil for a sequential session, which
	// explores on the machine's root context. Report sums the counts of the
	// root context and of these.
	workers []*vm.ExecContext

	// findings is the campaign-wide bug-deduplication ledger; the campaign
	// runner watches it for the StopAtFirstBug condition.
	findings *campaign.Findings

	// mu guards the result accounting shared by workers: bugs, paths,
	// PhaseResult mutation and phaseStats.
	mu         sync.Mutex
	bugs       []*Bug
	paths      int
	phaseStats []PhaseStat

	// notify, during a parallel explore, wakes workers blocked on an empty
	// frontier after a push.
	notify func()
}

// NewEngine builds a fully wired DDT session for the image.
func NewEngine(img *binimg.Image, opts Options) *Engine {
	cache := solver.NewCache(0)
	m := vm.NewMachine(img, expr.NewSymbolTable(), solver.NewWithCache(cache))
	e := &Engine{
		Img:      img,
		Opts:     opts,
		M:        m,
		K:        kernel.New(m),
		Dev:      hw.New(img.Device),
		Mem:      checkers.NewMemoryChecker(),
		Loop:     checkers.NewLoopChecker(opts.LoopThreshold),
		Sched:    exerciser.NewScheduler(opts.MaxStates),
		Cov:      exerciser.NewCoverage(len(binimg.StaticBlocks(img))),
		cache:    cache,
		findings: campaign.NewFindings(),
	}
	if opts.Coverage != nil {
		e.Cov = opts.Coverage
	}
	if opts.Workers > 1 {
		e.workers = make([]*vm.ExecContext, opts.Workers)
		for w := range e.workers {
			e.workers[w] = m.NewContext(solver.NewWithCache(cache))
		}
	}
	e.K.VerifierChecks = opts.VerifierChecks
	e.K.SymbolSeed = opts.SymbolSeed
	e.Dev.FreshSymbol = e.K.FreshSymbol
	e.Dev.Attach(m)
	if opts.ConcreteHardware {
		// Deterministic concrete device: reads return a pattern derived
		// from the register address; writes are still discarded.
		m.ReadDevice = func(s *vm.State, addr, size uint32) *expr.Expr {
			return expr.Const((addr*2654435761 + 0x5A) & 0xFF)
		}
		m.ReadPort = func(s *vm.State, port uint32) *expr.Expr {
			return expr.Const((port*2246822519 + 0xA5) & 0xFF)
		}
	}
	e.Mem.Install(m)
	if opts.Annotations {
		annot.InstallAll(e.K)
	}
	m.OnBlock = func(s *vm.State, pc uint32) {
		e.Sched.Record(pc)
		e.Cov.Visit(pc, m.ContextOf(s).Steps)
		if _, err := e.Loop.Visit(s, pc); err != nil {
			// Leave the fault on the state: the step loop surfaces it, so
			// it can never be attributed to a different path however the
			// scheduler interleaves forks.
			if f, ok := err.(*vm.Fault); ok {
				s.PendFault = f
			}
		}
	}
	e.K.OnBoundary = e.boundaryHook
	return e
}

// boundaryHook implements symbolic interrupts (§3.3): at each return from a
// kernel API (equivalently, just before the next kernel interaction), fork
// a sibling in which the device's interrupt fires there. Injection at entry
// start covers the remaining equivalence class (before the first API call).
func (e *Engine) boundaryHook(s *vm.State, api, when string) []*vm.State {
	if !e.Opts.SymbolicInterrupts || when != "return" {
		return nil
	}
	ks := kernel.Of(s)
	if !ks.ISRRegistered || s.InInterrupt > 0 {
		return nil
	}
	if !e.intrBudgetLeft(s) {
		return nil
	}
	alt := e.M.ForkState(s)
	kernel.Of(alt).InjectPending = true
	return []*vm.State{alt}
}

// intrBudgetLeft reports whether a path may absorb another injected
// interrupt. The count is path-global: it accumulates across workload
// phases, so a path that took MaxIntrInjections interrupts anywhere keeps
// rejecting injections for the rest of the workload. A sibling forked to
// take an interrupt is charged by its first action, runPath's injection.
func (e *Engine) intrBudgetLeft(s *vm.State) bool {
	return uint64(kernel.Of(s).Interrupts) < e.Opts.MaxIntrInjections
}

// EffectiveRegistry returns the registry hive the run boots with: defaults
// plus option overrides. Trace files embed it so replays see the same
// configuration.
func (e *Engine) EffectiveRegistry() map[string]uint32 {
	return workload.Registry(e.Opts.Registry)
}

// NewBootState builds the state in which the OS just loaded the driver:
// image mapped and granted, kernel booted, registry populated.
func (e *Engine) NewBootState() *vm.State {
	return workload.Boot(e.M, e.Img, e.EffectiveRegistry())
}

// recordBug deduplicates, solves the input model, and stores a bug. Safe
// for concurrent use: the solve runs on the worker's own solver, only the
// dedup/store is serialized.
func (e *Engine) recordBug(s *vm.State, fault *vm.Fault) {
	b := &Bug{
		Class:       checkers.Classify(fault, s),
		Fault:       fault,
		Site:        e.M.FaultSite(s, fault.PC),
		Entry:       s.EntryName,
		StateID:     s.ID,
		ICount:      s.ICount,
		InInterrupt: s.InInterrupt > 0,
	}
	if !e.findings.Admit(b.Key()) {
		return
	}

	b.Trace = s.Trace.Path()
	b.Trace = append(b.Trace, vm.Event{Kind: vm.EvBug, Seq: s.ICount, PC: fault.PC, Name: b.Class + ": " + fault.Msg})
	model := e.M.SolverFor(s).Model(s.Constraints)
	if model == nil {
		model = expr.Assignment{}
	}
	// Complete the model over every symbol on this path (unconstrained
	// symbols get an explicit zero so the trace is fully concrete).
	for _, ev := range b.Trace {
		if ev.Kind == vm.EvNewSym {
			if _, ok := model[ev.Sym]; !ok {
				model[ev.Sym] = 0
			}
			b.Symbols = append(b.Symbols, e.M.Syms.Info(ev.Sym))
		}
	}
	b.Model = model

	e.mu.Lock()
	e.bugs = append(e.bugs, b)
	e.mu.Unlock()
}

// bugCount returns the number of recorded bugs (thread-safe).
func (e *Engine) bugCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.bugs)
}

// PhaseResult is what one entry-phase exploration returns.
type PhaseResult struct {
	// Succeeded are exited states whose R0 was StatusSuccess (capped at
	// Opts.KeepStates), used to seed the next phase.
	Succeeded []*vm.State
	// Exited counts all completed paths.
	Exited int
	// BugsFound counts new bugs recorded during the phase.
	BugsFound int
}

// Explore runs all queued states to completion, recording coverage and
// bugs. Initial states must already be pushed (via e.Sched.Push) and set up
// with kernel.InvokeSym. The frontier is drained by a campaign.Runner over a
// barrierFrontier: with Opts.Workers > 1 a concurrent worker pool, each
// worker stepping on its own engine-lifetime vm.ExecContext (the per-phase
// path budget can overshoot by at most Workers-1 in-flight paths);
// otherwise a single worker on the machine's root context, bit-identical
// to the original single-threaded engine. ctx cancels the phase mid-run.
func (e *Engine) Explore(ctx context.Context, entryName string) PhaseResult {
	var res PhaseResult
	dbgStart := time.Now()
	bugsBefore := e.bugCount()

	ectxs := e.workers
	if ectxs == nil {
		ectxs = []*vm.ExecContext{e.M.Root()}
	}
	workers := len(ectxs)

	r := campaign.NewRunner(
		campaign.Options{Workers: workers, StopAtFirstBug: e.Opts.StopAtFirstBug},
		&barrierFrontier{e: e, res: &res},
		func(w int, st *vm.State) { e.runPath(ectxs[w], st, entryName, &res) },
	)
	r.BindFindings(e.findings)
	if workers > 1 {
		// A single worker is never parked while it executes, so pushes only
		// need wake-ups when other workers may be waiting.
		e.notify = r.Wake
	}
	r.Run(ctx)
	e.notify = nil

	if workers > 1 {
		e.mu.Lock()
		// Completion order is schedule-dependent; canonicalize by state ID
		// so KeepStates selection (and everything downstream) is ordered by
		// a property of the path, not of the race.
		sort.Slice(res.Succeeded, func(i, j int) bool {
			return res.Succeeded[i].ID < res.Succeeded[j].ID
		})
		e.mu.Unlock()
		dbgPhases.workerPaths(r.Summary().PerWorker)
	}

	// Frontier left over when the path budget is hit is abandoned —
	// bounded-exploration coverage loss, never unsoundness.
	for {
		st := e.Sched.Pop()
		if st == nil {
			break
		}
		st.Status = vm.StatusKilled
	}
	res.BugsFound = e.bugCount() - bugsBefore
	e.mu.Lock()
	e.phaseStats = append(e.phaseStats, PhaseStat{
		Name:      entryName,
		Exited:    res.Exited,
		Succeeded: len(res.Succeeded),
	})
	e.mu.Unlock()
	dbgPhases.printf("phase %-20s exited=%-4d succ=%-3d elapsed=%v\n",
		entryName, res.Exited, len(res.Succeeded), time.Since(dbgStart))
	return res
}

// barrierFrontier is the barriered engine's frontier policy: one entry
// phase over the shared scheduler, stopping when the per-phase path budget
// trips. The campaign runner owns all pool coordination; runPath does the
// result accounting.
type barrierFrontier struct {
	e   *Engine
	res *PhaseResult
}

// Next pops the next frontier state, or stops the phase at its budget.
func (f *barrierFrontier) Next(w int) (*vm.State, campaign.Verdict) {
	f.e.mu.Lock()
	exited := f.res.Exited
	f.e.mu.Unlock()
	if exited >= f.e.Opts.MaxPathsPerEntry {
		return nil, campaign.Stop
	}
	if st := f.e.Sched.Pop(); st != nil {
		return st, campaign.Dispatch
	}
	return nil, campaign.Drained
}

// pushState queues a forked sibling and, during a parallel explore, wakes
// a blocked worker for it.
func (e *Engine) pushState(n *vm.State) {
	e.Sched.Push(n)
	if f := e.notify; f != nil {
		f()
	}
}

// runPath steps one state until it terminates or forks; forked siblings go
// back to the scheduler. ctx is the calling worker's execution context.
// A state that ends here and is not carried into the next phase is retired
// on this worker, so its pooled storage serves the paths that follow.
func (e *Engine) runPath(ctx *vm.ExecContext, st *vm.State, entryName string, res *PhaseResult) {
	// Deferred ISR injection (marked at a boundary crossing).
	if ks := kernel.Of(st); ks.InjectPending {
		ks.InjectPending = false
		if !e.K.InjectInterrupt(st) {
			st.Status = vm.StatusKilled
			ctx.Retire(st)
			return
		}
	}
	start := st.ICount
	cur := st
	for cur.Status == vm.StatusRunning {
		if cur.ICount-start >= e.Opts.MaxStepsPerPath {
			cur.Status = vm.StatusKilled
			ctx.Retire(cur)
			return
		}
		next, err := ctx.StepSpan(cur, e.Opts.MaxStepsPerPath-(cur.ICount-start))
		// A fault left pending on the stepped state by a hook (the loop
		// checker) fails the path right here, keeping the original engine's
		// timing; forked children of the same step die with their parent.
		if err == nil && cur.PendFault != nil {
			err = cur.PendFault
			cur.PendFault = nil
			cur.Status = vm.StatusBug
		}
		if err != nil {
			if f, ok := err.(*vm.Fault); ok {
				e.recordBug(cur, f)
			} else {
				e.recordBug(cur, vm.Faultf("engine", cur.PC, "%v", err))
			}
			ctx.Retire(cur)
			return
		}
		switch len(next) {
		case 0:
			if !e.finishPath(cur, res) {
				ctx.Retire(cur)
			}
			return
		case 1:
			cur = next[0]
		default:
			for _, n := range next[1:] {
				e.pushState(n)
			}
			cur = next[0]
			// Keep running the first child without rescheduling: cheap
			// depth-first descent within the coverage-guided outer loop.
		}
	}
}

// finishPath accounts a path that stopped without a fault and reports
// whether it was carried forward as a successful outcome (res.Succeeded).
func (e *Engine) finishPath(s *vm.State, res *PhaseResult) bool {
	if s.Status != vm.StatusExited {
		return false
	}
	e.mu.Lock()
	e.paths++
	res.Exited++
	e.mu.Unlock()
	status, ok := s.RegConcrete(isa.R0)
	if !ok {
		// A symbolic entry status: concretize for bookkeeping.
		v, err := e.M.Concretize(s, s.Reg(isa.R0), "entry status")
		if err != nil {
			return false
		}
		status = v
	}
	// Leak checking at entry exit (failed Initialize / completed Halt).
	if err := e.Leak.CheckEntryExit(s, s.EntryName, status); err != nil {
		if f, ok := err.(*vm.Fault); ok {
			e.recordBug(s, f)
		}
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	kept := status == kernel.StatusSuccess && len(res.Succeeded) < e.Opts.KeepStates*4
	if kept {
		res.Succeeded = append(res.Succeeded, s)
	}
	return kept
}

// Report assembles the session report.
func (e *Engine) Report() *Report {
	e.mu.Lock()
	bugs := append([]*Bug(nil), e.bugs...)
	paths := e.paths
	phases := append([]PhaseStat(nil), e.phaseStats...)
	e.mu.Unlock()
	cs := e.cache.Stats()
	r := &Report{
		Driver:               e.Img.Name,
		Bugs:                 bugs,
		PathsExplored:        paths,
		BlocksCovered:        e.Cov.Blocks(),
		BlocksStatic:         e.Cov.TotalStatic,
		SolverCacheHits:      cs.Hits,
		SolverCacheEvictions: cs.Evictions,
		Workers:              max(len(e.workers), 1),
		Phases:               phases,
		SymbolsMade:          e.M.Syms.Len(),
	}
	for _, c := range append([]*vm.ExecContext{e.M.Root()}, e.workers...) {
		r.StatesForked += c.Forks
		r.Instructions += c.Steps
		r.SolverQueries += c.Solver.Stats.Queries
	}
	for _, p := range e.Cov.Series() {
		r.CoverageSeries = append(r.CoverageSeries, CoveragePointOut{p.Instructions, p.Blocks})
	}
	return r
}

// Bugs returns the bugs recorded so far.
func (e *Engine) Bugs() []*Bug {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bugs
}

func (e *Engine) String() string {
	e.mu.Lock()
	bugs, paths := len(e.bugs), e.paths
	e.mu.Unlock()
	return fmt.Sprintf("ddt engine for %q (%d bugs, %d paths)", e.Img.Name, bugs, paths)
}
