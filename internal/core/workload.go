package core

import (
	"context"
	"sort"

	"repro/internal/kernel"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The workload generator is our Device Path Exerciser (§4.3): it invokes
// each registered entry point the way the OS would — load, initialize,
// exercise the data path (one packet / one playback, §5.2), query and set
// driver information with symbolic OIDs, drain DPCs, deliver interrupts,
// halt — and lets symbolic execution fan out from each invocation. The
// plan itself lives in internal/workload; this file is its barriered
// walker.

// TestDriver runs the complete workload against the image and returns the
// bug report. This is the top-level "Test Now button" (§1). ctx cancels
// the session mid-run; Opts.Duration, when set, bounds its wall-clock time.
func (e *Engine) TestDriver(ctx context.Context) (*Report, error) {
	if e.Opts.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.Opts.Duration)
		defer cancel()
	}
	boot := e.NewBootState()

	// Phase: DriverEntry — the load-time entry named in the binary header.
	entry := e.M.ForkState(boot)
	e.K.InvokeSym(entry, "DriverEntry", e.Img.Entry)
	e.Sched.Push(entry)
	res := e.Explore(ctx, "DriverEntry")
	if len(res.Succeeded) == 0 {
		// A driver whose load entry always fails or crashes: report what
		// we found.
		return e.Report(), nil
	}
	e.runGraph(ctx, e.phasePlan(), res.Succeeded)
	return e.Report(), nil
}

// runGraph walks the workload plan under the barriered explorer: every
// node's invocations across all of its input states are explored to
// completion before the next node starts. Edges only point forward, so plan
// index order is a topological order and a single in-order sweep visits
// every node after all of its predecessors. Node 0 (DriverEntry) has
// already run; bases are its successes, routed along node 0's edges.
func (e *Engine) runGraph(ctx context.Context, plan workload.Plan, bases []*vm.State) {
	in := make([][]routed, len(plan))
	var next []int
	route := func(i int, out []routed) {
		for _, r := range out {
			next = plan.Next(next[:0], i, r.s)
			for k, j := range next {
				rj := r
				if len(next) > 1 {
					// Copy on append: the routes out of one state must not
					// share the backing array of their choices.
					rj.edges = append(r.edges[:len(r.edges):len(r.edges)], vm.Event{
						Kind: vm.EvRoute, Seq: r.s.ICount, PC: r.s.PC,
						Addr: uint32(k), Size: uint8(len(next)), Name: plan[j].Name,
					})
				}
				in[j] = append(in[j], rj)
			}
		}
	}
	route(0, fresh(bases))
	for i := 1; i < len(plan); i++ {
		if len(in[i]) == 0 {
			continue
		}
		var out []routed
		var ok bool
		if plan[i].Drain {
			out, ok = e.drainDPCs(ctx, plan, i, in[i]), true
		} else {
			out, ok = e.runNode(ctx, plan, i, in[i])
		}
		if !ok && plan[i].Gate {
			// Gate with zero successes: this subtree of the scenario ends —
			// the OS only exercises the data path, and eventually Halt, on
			// an adapter that initialized successfully.
			continue
		}
		// Zero-success non-gate nodes return their inputs unchanged
		// (pass-through), so routing out is always right.
		route(i, out)
	}
}

// routed is a state on its way into a plan node, with the scenario-edge
// choices (EvRoute events) taken since it last ran an entry. Routing does
// not fork, so the choices ride alongside the state, through pass-through
// nodes too, until invoke writes them into the next invocation's trace:
// the trace then carries every decision the fuzz executor reads from a
// feed's fork stream.
type routed struct {
	s     *vm.State
	edges []vm.Event
}

// fresh wraps states that have just run an entry: no choices pending.
func fresh(states []*vm.State) []routed {
	out := make([]routed, len(states))
	for i, s := range states {
		out[i].s = s
	}
	return out
}

// runNode runs plan node i over its input states: invoke, explore, then
// carry forward at most KeepStates successes. It returns the inputs and
// false when nothing applied or nothing succeeded.
func (e *Engine) runNode(ctx context.Context, plan workload.Plan, i int, bases []routed) ([]routed, bool) {
	any := false
	for _, base := range bases {
		for _, st := range e.invoke(plan, i, base) {
			any = true
			e.Sched.Push(st)
		}
	}
	if !any {
		return bases, false
	}
	res := e.Explore(ctx, plan[i].Name)
	if len(res.Succeeded) == 0 {
		return bases, false
	}
	// Prefer carrying forward states with queued DPCs — they hold the
	// continuations (timer callbacks) the DPC-drain phase must exercise —
	// then cap at the configured fan-out.
	sort.SliceStable(res.Succeeded, func(i, j int) bool {
		return len(kernel.Of(res.Succeeded[i]).PendingDPCs) > len(kernel.Of(res.Succeeded[j]).PendingDPCs)
	})
	if len(res.Succeeded) > e.Opts.KeepStates {
		res.Succeeded = res.Succeeded[:e.Opts.KeepStates]
	}
	normalize(res.Succeeded...)
	return fresh(res.Succeeded), true
}

// drainDPCs dispatches pending timer/DPC callbacks at DISPATCH_LEVEL with
// the DPC flag set (where the Intel Pro/100 spinlock bug manifests). A
// driver may hold several queued DPCs — a timer callback plus KDPCs the
// ISR inserted — so the drain runs to a fixpoint: each round pops one DPC
// per state and explores it, until no carried state has work left. States
// whose queue is already empty ride through a round unchanged.
func (e *Engine) drainDPCs(ctx context.Context, plan workload.Plan, i int, bases []routed) []routed {
	for round := 0; round < workload.MaxDPCRounds; round++ {
		var out []routed
		ran := false
		for _, base := range bases {
			sts := e.invoke(plan, i, base)
			if len(sts) == 0 {
				out = append(out, base)
				continue
			}
			ran = true
			for _, st := range sts {
				e.Sched.Push(st)
			}
		}
		if !ran {
			return bases
		}
		res := e.Explore(ctx, plan[i].Name)
		normalize(res.Succeeded...)
		out = append(out, fresh(res.Succeeded)...)
		if len(out) == 0 {
			return bases
		}
		bases = out
	}
	return bases
}

// invoke forks base into plan node i's invocation state(s): the
// invocation itself, plus the interrupt-at-entry sibling when the node
// admits one, an ISR is registered and the path's interrupt budget allows.
// Each invocation's trace takes base's pending edge choices before its
// entry. It does not push them.
func (e *Engine) invoke(plan workload.Plan, i int, base routed) []*vm.State {
	n := &plan[i]
	if !n.Applies(base.s) {
		return nil
	}
	env := workload.Env{K: e.K, Annotations: e.Opts.Annotations}
	mk := func() *vm.State {
		st := e.M.ForkState(base.s)
		for _, ev := range base.edges {
			st.Trace.Append(ev)
		}
		name, pc, args := n.Enter(env, st)
		e.K.InvokeSym(st, name, pc, args.List()...)
		return st
	}
	st := mk()
	out := []*vm.State{st}
	if n.EntryInterrupt() && e.Opts.SymbolicInterrupts && kernel.Of(st).ISRRegistered && e.intrBudgetLeft(base.s) {
		alt := mk()
		kernel.Of(alt).InjectPending = true
		out = append(out, alt)
	}
	return out
}

// normalize clears the DPC/IRQL context of states carried into the next
// phase: phases must not leak it.
func normalize(states ...*vm.State) {
	for _, s := range states {
		ks := kernel.Of(s)
		ks.InDpc = false
		ks.IRQL = kernel.PassiveLevel
	}
}

// phasePlan is the engine's workload plan: the class plan in the scenario
// Options.Scenario selects.
func (e *Engine) phasePlan() workload.Plan {
	return workload.Build(e.Img, e.Opts.Scenario)
}
