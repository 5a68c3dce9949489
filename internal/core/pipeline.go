package core

import (
	"context"

	"repro/internal/campaign"
	"repro/internal/exerciser"
	"repro/internal/kernel"
	"repro/internal/solver"
	"repro/internal/vm"
	"repro/internal/workload"
	"repro/internal/workq"
)

// The pipelined explorer dissolves the workload phase barriers. The
// barriered engine (TestDriver's default path) drains EVERY phase-k path
// before ANY phase-k+1 path starts, so workers idle while the slowest
// Initialize path finishes. Nothing in the paper requires that global
// ordering — only that each individual path respects the phase order — so
// here one persistent worker pool runs over a phase-aware frontier: a path
// that completes phase k immediately seeds its successor invocation into
// phase k+1 (capped at KeepStates promotions per phase), and the scheduler
// weights earlier phases so spare workers pick up later-phase work exactly
// where the barrier used to stall.
//
// The moving parts:
//
//   - the workload plan (internal/workload) is the phase list: per phase, an
//     applicability test, the invocation it makes and its outgoing edges;
//     Engine.invoke forks a base into it.
//   - pipeSeed is a phase-transition work item ("invoke base into phase j"),
//     carried by a workq.Queue — the engine-side consumer the workq package
//     was generalized for: promotions land on the completing worker's own
//     shard (locality), idle workers steal.
//   - pipeLedger is the per-(entry, phase) campaign.Ledger replacing the
//     barriered engine's per-Explore bounds: exited paths are budgeted per
//     phase (MaxPathsPerEntry each), promotions per phase (KeepStates).
//   - pipeRun is the campaign.Frontier policy: workers prefer seeds, then
//     frontier states; the campaign.Runner owns the pool, and the run ends
//     when every phase has drained.
//
// Per-path soundness is unchanged: a state only ever reaches phase k+1 by
// being forked from a base that completed an earlier phase successfully
// (promotion), or by the fallback below. Zero-success fallback: the
// barriered loop passes a phase's input bases through unchanged when no
// invocation succeeds; here, when a non-gate phase drains with zero
// successes, its input bases are re-seeded into the next applicable phase.
// Gate phases (DriverEntry, Initialize) keep their stronger semantics: no
// success means the rest of the workload is not exercised.

// pipeSeed is one phase-transition work item: invoke base into phase.
type pipeSeed struct {
	base  *vm.State
	phase int
}

// pipeLedger is one phase's campaign budget ledger plus the pipeline's own
// phase bookkeeping, all guarded by the runner's coordinator lock.
type pipeLedger struct {
	campaign.Ledger
	node *workload.Node

	// bases are this phase's input states, kept for the zero-success
	// fallback (bounded: promotions into a phase are KeepStates-capped).
	bases []*vm.State

	// Drained counts drain-phase re-entries (successes that still held
	// pending DPCs and were re-seeded into this same phase); bounded
	// separately from Promoted so the fixpoint never starves promotion.
	Drained int

	// PromotedDPC counts extra promotions granted to successes that carry
	// pending DPCs after the ordinary Promoted quota is spent. The
	// barriered loop SORTS a phase's successes by pending-DPC count before
	// capping at KeepStates, guaranteeing DPC-carrying states survive into
	// the drain; the pipelined explorer promotes in completion order and
	// would otherwise spend its whole quota on DPC-less fast paths and
	// never seed the drain phase at all.
	PromotedDPC int
}

// pipeItem is one unit of pipelined work: either a seed to expand or a
// frontier state to run. The executor fills the output half (out / res)
// and Retire folds it into the ledgers.
type pipeItem struct {
	seed *pipeSeed
	st   *vm.State

	out []*vm.State // invocation states produced by a seed expansion
	res PhaseResult // path result produced by running st
}

// pipeRun is the pipelined explorer's campaign.Frontier: the phase-aware
// work-selection policy over one campaign.Runner-owned worker pool.
type pipeRun struct {
	e       *Engine
	r       *campaign.Runner[*pipeItem]
	plan    workload.Plan
	phases  []*pipeLedger
	ledgers []*campaign.Ledger // the campaign view of phases, same order
	seeds   *workq.Queue[pipeSeed]
	ectxs   []*vm.ExecContext
	// perPaths counts retired paths per worker (seeds excluded) for the
	// debug reporter; slot w is only touched by worker w.
	perPaths []int
}

// testDriverPipelined is TestDriver without phase barriers: one persistent
// campaign.Runner pool over the phase-aware frontier, from DriverEntry to
// Halt.
func (e *Engine) testDriverPipelined(ctx context.Context) (*Report, error) {
	plan := e.phasePlan()
	if e.Opts.Heuristic == nil {
		// Phase-weighted pick over the mixed-phase frontier. Scenario
		// graphs weight by depth rank, not list position: alternative
		// branches at equal depth compete fairly (on a linear plan ranks
		// equal indices, so this is the original phase-weighted pick).
		e.Sched.SetHeuristic(exerciser.NewPhaseRankMinBlockCount(e.Sched.Counts(), plan.Ranks()))
	}
	p := &pipeRun{e: e, plan: plan, seeds: workq.New[pipeSeed](e.Opts.Workers)}
	for i := range plan {
		l := &pipeLedger{node: &plan[i]}
		l.Name = plan[i].Name
		p.phases = append(p.phases, l)
		p.ledgers = append(p.ledgers, &l.Ledger)
	}
	p.ectxs = make([]*vm.ExecContext, e.Opts.Workers)
	for w := range p.ectxs {
		p.ectxs[w] = e.M.NewContext(solver.NewWithCache(e.cache))
	}
	p.perPaths = make([]int, e.Opts.Workers)
	p.r = campaign.NewRunner[*pipeItem](
		campaign.Options{Workers: e.Opts.Workers, StopAtFirstBug: e.Opts.StopAtFirstBug},
		p, p.exec)
	p.r.BindFindings(e.findings)
	e.pipe = p

	p.enqueueSeed(0, e.NewBootState(), 0)
	p.r.Run(ctx)
	e.pipe = nil

	e.mu.Lock()
	for _, c := range p.ectxs {
		e.workerQueries += c.Solver.Stats.Queries
	}
	e.mu.Unlock()
	dbgPhases.workerPaths(p.perPaths)

	// A StopAtFirstBug (or canceled) stop can leave frontier states behind;
	// abandon them exactly as the barriered engine abandons an over-budget
	// frontier.
	for {
		st := e.Sched.Pop()
		if st == nil {
			break
		}
		st.Status = vm.StatusKilled
	}

	e.mu.Lock()
	for _, l := range p.phases {
		e.phaseStats = append(e.phaseStats, PhaseStat{
			Name:         l.node.Name,
			Exited:       l.Exited,
			Succeeded:    l.Succeeded,
			Promoted:     l.Promoted,
			SeedsIn:      l.SeedsIn,
			PeakInFlight: l.PeakInFlight,
			PeakQueued:   l.PeakQueued,
		})
	}
	e.mu.Unlock()
	return e.Report(), nil
}

// exec runs one work item: expand a seed into its invocation states (under
// the coordinator lock), or step a frontier state to completion (outside
// it).
func (p *pipeRun) exec(w int, it *pipeItem) {
	switch {
	case it.seed != nil:
		// One base may be seeded into several phases (a scenario fan-out,
		// a zero-success fallback), and forking writes to the parent
		// state, so expansions of a shared base must not run concurrently.
		p.r.Locked(func() { it.out = p.e.invoke(p.plan, it.seed.phase, it.seed.base) })
	case it.st != nil:
		p.e.runPath(p.ectxs[w], it.st, p.plan[it.st.Phase].Name, &it.res)
		p.perPaths[w]++
	}
}

// Next hands the worker its next work item: seeds first (they create work
// and are shard-local), then frontier states. Called under the runner's
// coordinator lock.
func (p *pipeRun) Next(w int) (*pipeItem, campaign.Verdict) {
	if s, ok := p.seeds.Pop(w); ok {
		l := p.phases[s.phase]
		l.PendingSeeds--
		l.Expanding++
		return &pipeItem{seed: &s}, campaign.Dispatch
	}
	for {
		st := p.e.Sched.Pop()
		if st == nil {
			break
		}
		l := p.phases[st.Phase]
		l.Queued--
		if l.Exited >= p.e.Opts.MaxPathsPerEntry {
			// Per-(entry, phase) path budget exhausted: abandon the rest
			// of this phase's frontier (coverage loss, never
			// unsoundness) — the barriered engine's post-Explore kill.
			st.Status = vm.StatusKilled
			continue
		}
		l.BeginFlight()
		return &pipeItem{st: st}, campaign.Dispatch
	}
	return nil, campaign.Drained
}

// Retire folds one completed item into the ledgers. Called under the
// runner's coordinator lock.
func (p *pipeRun) Retire(w int, it *pipeItem) {
	switch {
	case it.seed != nil:
		p.seedExpanded(w, it.seed.phase, it.out)
	case it.st != nil:
		p.pathDone(w, it.st, &it.res)
	}
}

// Idle is consulted when the frontier is drained and nothing is in flight:
// advance the drain cascade (which may fire a zero-success fallback) and
// end the campaign once every phase is done. Called under the runner's
// coordinator lock.
func (p *pipeRun) Idle(w int) bool {
	p.reap(w)
	return campaign.AllDone(p.ledgers)
}

// enqueueSeed queues "invoke base into phase" on the worker's own workq
// shard and records base as a fallback input of that phase. Caller holds
// the coordinator lock (or the pool has not started yet).
func (p *pipeRun) enqueueSeed(w int, base *vm.State, phase int) {
	l := p.phases[phase]
	l.SeedsIn++
	l.PendingSeeds++
	l.bases = append(l.bases, base)
	if h := p.e.testOnSeed; h != nil {
		h(base, phase)
	}
	p.seeds.Push(w, pipeSeed{base: base, phase: phase})
}

// seedOnward promotes base past fromPhase along the plan's edges into
// every successor phase that applies to it. Non-applicable phases are
// skipped through via their own edges — except gates: a gate phase that
// does not apply (e.g. a network driver that never registered an
// Initialize handler) ends the workload for this base, exactly as the
// barriered loop's "!initialized" early return refuses to exercise the
// data path on an uninitialized adapter. On a linear plan (nil succs
// everywhere) this reduces exactly to the old walk: first applicable
// phase wins, stop at a non-applicable gate. Caller holds the coordinator
// lock.
func (p *pipeRun) seedOnward(w int, base *vm.State, fromPhase int) {
	p.seedAlong(w, base, fromPhase, make(map[int]bool))
}

// seedAlong routes base along phase i's outgoing edges (nil succs = linear
// fallthrough). The visited set dedupes skip-through on diamond shapes —
// two alternatives converging on the same DPC node must seed it once.
func (p *pipeRun) seedAlong(w int, base *vm.State, i int, visited map[int]bool) {
	for _, j := range p.plan.Next(nil, i, base) {
		p.seedInto(w, base, j, visited)
	}
}

// seedInto seeds base into phase j if it applies, else skips through j's
// own edges (gates end the walk instead).
func (p *pipeRun) seedInto(w int, base *vm.State, j int, visited map[int]bool) {
	if visited[j] {
		return
	}
	visited[j] = true
	if p.plan[j].Applies(base) {
		p.enqueueSeed(w, base, j)
		return
	}
	if p.plan[j].Gate {
		return
	}
	p.seedAlong(w, base, j, visited)
}

// seedExpanded pushes a seed's invocation states into the frontier and
// retires the expansion. Caller holds the coordinator lock.
func (p *pipeRun) seedExpanded(w, phase int, states []*vm.State) {
	l := p.phases[phase]
	l.Expanding--
	for _, st := range states {
		if p.e.Sched.Push(st) {
			l.AddQueued(1)
		}
	}
	p.reap(w)
}

// pushForked accounts a mid-path fork landing in the frontier (called via
// Engine.pushState from a worker's runPath, outside the coordinator lock).
func (p *pipeRun) pushForked(n *vm.State) {
	p.r.Locked(func() {
		if p.e.Sched.Push(n) {
			p.phases[n.Phase].AddQueued(1)
		}
	})
}

// pathDone retires one explored path: budget accounting, promotion of a
// success into the next phase (KeepStates-capped, on the completing
// worker's shard), and the drain cascade. Caller holds the coordinator
// lock.
func (p *pipeRun) pathDone(w int, st *vm.State, res *PhaseResult) {
	l := p.phases[st.Phase]
	l.InFlight--
	l.Exited += res.Exited
	// The completed state is the tail of runPath's depth-first descent —
	// a fork descendant of st in the same phase — not necessarily st.
	done := st
	success := len(res.Succeeded) > 0
	if success {
		done = res.Succeeded[0]
		l.Succeeded++
	}
	if h := p.e.testOnPathDone; h != nil {
		h(done, st.Phase, success)
	}
	hasDPCs := len(kernel.Of(done).PendingDPCs) > 0
	switch {
	case success && l.node.Drain && hasDPCs &&
		l.Drained < p.e.Opts.KeepStates*workload.MaxDPCRounds:
		// Drain phase with work left: re-enter the same phase (the
		// pipelined form of drainDPCs' fixpoint rounds). Not charged to
		// Promoted — the fixpoint must not eat the forward budget.
		l.Drained++
		normalize(done)
		p.enqueueSeed(w, done, st.Phase)
	case success && (l.Promoted < p.e.Opts.KeepStates ||
		(hasDPCs && l.PromotedDPC < p.e.Opts.KeepStates)):
		if l.Promoted < p.e.Opts.KeepStates {
			l.Promoted++
		} else {
			l.PromotedDPC++
		}
		// Promoted bases must not leak DPC/IRQL context into the next
		// phase (the barriered loop normalizes carried states the same way).
		normalize(done)
		p.seedOnward(w, done, st.Phase)
	}
	p.reap(w)
}

// reap advances the drain cascade: phases complete strictly in order
// (promotion only flows forward), so walk from the front and mark every
// already-done-prefixed phase with no remaining activity as done. A
// non-gate phase that drains with zero successes passes its input bases
// through to the next applicable phase — the barriered loop's fallback.
// Caller holds the coordinator lock.
func (p *pipeRun) reap(w int) {
	for i, l := range p.phases {
		if l.Done {
			continue
		}
		if l.Activity() > 0 {
			// Not drained; later phases can still be seeded by this one.
			return
		}
		l.Done = true
		dbgPhases.printf("pipeline phase %-20s drained: exited=%-4d succ=%-3d promoted=%d\n",
			l.node.Name, l.Exited, l.Succeeded, l.Promoted)
		dbgPhases.gauges("pipeline", p.gaugeRows())
		if !l.node.Gate && l.SeedsIn > 0 && l.Succeeded == 0 {
			for _, b := range l.bases {
				p.seedOnward(w, b, i)
			}
		}
		// Gate with zero successes: nothing seeds onward; the remaining
		// phases drain empty through this same cascade.
	}
}

// gaugeRows snapshots the per-phase occupancy for the debug reporter.
// Caller holds the coordinator lock.
func (p *pipeRun) gaugeRows() []phaseGauge {
	rows := make([]phaseGauge, 0, len(p.phases))
	for _, l := range p.phases {
		rows = append(rows, phaseGauge{
			Name:     l.node.Name,
			Queued:   l.Queued + l.PendingSeeds,
			InFlight: l.InFlight + l.Expanding,
			Exited:   l.Exited,
		})
	}
	return rows
}
