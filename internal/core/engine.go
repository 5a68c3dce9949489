package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/annot"
	"repro/internal/binimg"
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

// Options configure one DDT run. One walk explores the session on the
// calling goroutine, so a run is deterministic. It walks the workload
// phase by phase: a phase's paths all finish before the next phase starts.
// The caller's context bounds the session's wall-clock time, and the
// session's coverage is Engine.Cov.
type Options struct {
	// StopAtFirstBug ends the session at its first recorded bug — Driver
	// Verifier's crash-on-first-failure behaviour (§5.1).
	StopAtFirstBug bool
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

// keepStates is how many successful outcomes of a phase seed the next one.
const keepStates = 2

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
		LoopThreshold:      2_000,
	}
}

// Engine is one DDT testing session bound to a driver image.
type Engine struct {
	Img  *binimg.Image
	Opts Options

	M    *vm.Machine
	K    *kernel.Kernel
	Dev  *hw.Device
	Mem  *checkers.MemoryChecker
	Loop *checkers.LoopChecker
	Leak checkers.LeakChecker

	Sched *exerciser.Scheduler
	Cov   *exerciser.Coverage

	// seen holds the finding keys of bugs already recorded; only the walk
	// touches it.
	seen map[string]bool

	// mu guards bugs, which Bugs, Report and String may read from another
	// goroutine while the walk runs (a time-to-bug watcher polls Bugs). The
	// walk is the only writer, so it reads bugs without the lock.
	mu   sync.Mutex
	bugs []*Bug

	// paths and phaseStats are the walk's own ledger: Report and String
	// read them once TestDriver has returned.
	paths      int
	phaseStats []PhaseStat
}

// NewEngine builds a fully wired DDT session for the image.
func NewEngine(img *binimg.Image, opts Options) *Engine {
	m := vm.NewMachine(img, expr.NewSymbolTable(), solver.New())
	k := kernel.New(m)
	e := &Engine{
		Img:   img,
		Opts:  opts,
		M:     m,
		K:     k,
		Dev:   hw.New(hw.Symbols(k.FreshSymbol)),
		Mem:   checkers.NewMemoryChecker(),
		Loop:  checkers.NewLoopChecker(opts.LoopThreshold),
		Sched: exerciser.NewScheduler(opts.MaxStates),
		Cov:   exerciser.NewCoverage(len(binimg.StaticBlocks(img))),
		seen:  make(map[string]bool),
	}
	e.K.VerifierChecks = opts.VerifierChecks
	e.K.SymbolSeed = opts.SymbolSeed
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
		e.Cov.Visit(pc, m.Steps)
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

// recordBug deduplicates, solves the input model, and stores a bug.
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
	k := b.Key()
	if e.seen[k] {
		return
	}
	e.seen[k] = true

	b.Trace = s.Trace.Path()
	b.Trace = append(b.Trace, vm.Event{Kind: vm.EvBug, Seq: s.ICount, PC: fault.PC, Name: b.Class + ": " + fault.Msg})
	model := e.M.Solver.Model(s.Constraints)
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

// PhaseResult is what one entry-phase exploration returns.
type PhaseResult struct {
	// Succeeded are exited states whose R0 was StatusSuccess, used to seed
	// the next phase.
	Succeeded []*vm.State
	// Exited counts all completed paths.
	Exited int
	// BugsFound counts new bugs recorded during the phase.
	BugsFound int
}

// Explore runs all queued states to completion, recording coverage and
// bugs. Initial states must already be pushed (via e.Sched.Push) and set up
// with kernel.InvokeSym. The walk runs on the calling goroutine and the
// machine, so it is deterministic. Before each pop it stops when ctx is
// done, when StopAtFirstBug has a recorded bug, or when the phase has
// finished MaxPathsPerEntry paths.
func (e *Engine) Explore(ctx context.Context, entryName string) PhaseResult {
	var res PhaseResult
	dbgStart := time.Now()
	bugsBefore := len(e.bugs)

	for ctx.Err() == nil &&
		!(e.Opts.StopAtFirstBug && len(e.bugs) > 0) &&
		res.Exited < e.Opts.MaxPathsPerEntry {
		st := e.Sched.Pop()
		if st == nil {
			break
		}
		e.runPath(st, entryName, &res)
	}

	// Frontier left over when the walk stops early is abandoned —
	// bounded-exploration coverage loss, never unsoundness.
	for {
		st := e.Sched.Pop()
		if st == nil {
			break
		}
		st.Status = vm.StatusKilled
	}
	res.BugsFound = len(e.bugs) - bugsBefore
	e.phaseStats = append(e.phaseStats, PhaseStat{
		Name:      entryName,
		Exited:    res.Exited,
		Succeeded: len(res.Succeeded),
	})
	dbgPhases.printf("phase %-20s exited=%-4d succ=%-3d elapsed=%v\n",
		entryName, res.Exited, len(res.Succeeded), time.Since(dbgStart))
	return res
}

// runPath steps one state until it terminates or forks; forked siblings go
// back to the scheduler. A state that ends here and is not carried into the
// next phase is retired on the machine, so its pooled storage serves the
// paths that follow.
func (e *Engine) runPath(st *vm.State, entryName string, res *PhaseResult) {
	m := e.M
	// Deferred ISR injection (marked at a boundary crossing).
	if ks := kernel.Of(st); ks.InjectPending {
		ks.InjectPending = false
		if !e.K.InjectInterrupt(st) {
			st.Status = vm.StatusKilled
			m.Retire(st)
			return
		}
	}
	start := st.ICount
	cur := st
	for cur.Status == vm.StatusRunning {
		if cur.ICount-start >= e.Opts.MaxStepsPerPath {
			cur.Status = vm.StatusKilled
			m.Retire(cur)
			return
		}
		next, err := m.StepSpan(cur, e.Opts.MaxStepsPerPath-(cur.ICount-start))
		// A fault left pending on the stepped state by a hook (the loop
		// checker) fails the path right here, keeping the original engine's
		// timing; a sibling forked in the same step dies with it.
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
			m.Retire(cur)
			return
		}
		switch len(next) {
		case 0:
			if !e.finishPath(cur, res) {
				m.Retire(cur)
			}
			return
		case 1:
			cur = next[0]
		default:
			for _, n := range next[1:] {
				e.Sched.Push(n)
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
	e.paths++
	res.Exited++
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
	kept := status == kernel.StatusSuccess && len(res.Succeeded) < keepStates*4
	if kept {
		res.Succeeded = append(res.Succeeded, s)
	}
	return kept
}

// Report assembles the session report.
func (e *Engine) Report() *Report {
	e.mu.Lock()
	bugs := append([]*Bug(nil), e.bugs...)
	e.mu.Unlock()
	st := e.M.Solver.Stats
	return &Report{
		Driver:               e.Img.Name,
		Bugs:                 bugs,
		PathsExplored:        e.paths,
		StatesForked:         e.M.Forks,
		Instructions:         e.M.Steps,
		BlocksCovered:        e.Cov.Blocks(),
		BlocksStatic:         e.Cov.TotalStatic,
		SolverQueries:        st.Queries,
		SymbolsMade:          e.M.Syms.Len(),
		SolverCacheHits:      st.CacheHits,
		SolverCacheEvictions: st.CacheEvictions,
		Phases:               append([]PhaseStat(nil), e.phaseStats...),
		CoverageSeries:       e.Cov.Series(),
	}
}

// Bugs returns the bugs recorded so far.
func (e *Engine) Bugs() []*Bug {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bugs
}

func (e *Engine) String() string {
	e.mu.Lock()
	bugs := len(e.bugs)
	e.mu.Unlock()
	return fmt.Sprintf("ddt engine for %q (%d bugs, %d paths)", e.Img.Name, bugs, e.paths)
}
