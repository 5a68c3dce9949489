package main

import (
	"context"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/solver"
	"repro/internal/vm"
)

// Sweep is the symbolic-sweep workload: one sequential engine session
// (core.DefaultOptions, one worker) per driver, each checked against the
// driver's planted Table 2 bugs.
type Sweep struct {
	Drivers []string
	// Expected returns the bug classes a driver's session must report.
	Expected func(driver string) []string
}

func defaultSweep() *Sweep {
	return &Sweep{
		Drivers: []string{
			"intel-pro1000", "intel-pro100", "intel-ac97", "ensoniq-audiopci",
			"amd-pcnet", "rtl8029", "promise-ultra133",
		},
		Expected: expectedBugs,
	}
}

// hookNames are the symbolic-sweep layer spans, in report order.
var hookNames = []string{
	"kernel.api", "hw.io", "checkers.mem", "checkers.pin", "exerciser.onblock", "kernel.intr",
}

// Round runs every session once, in an order drawn from seed.
func (w *Sweep) Round(seed int64, rec *Recorder) (*Round, error) {
	r := newRound()
	t := time.Now()
	imgs, err := assemble(w.Drivers)
	if err != nil {
		return nil, err
	}
	r.Setup.Assemble = time.Since(t)
	t = time.Now()
	engs := make([]*core.Engine, len(w.Drivers))
	for i, d := range w.Drivers {
		engs[i] = core.NewEngine(imgs[d], core.DefaultOptions())
	}
	r.Setup.Machine = time.Since(t)

	// Traced rounds wrap the hooks and capture each fork's children's
	// path conditions for the solver replay.
	var conds [][]*expr.Expr
	intrForks := 0
	if rec != nil {
		// One sequential engine worker runs every hook, so the whole
		// sweep shares one lane.
		lane := rec.Lane()
		for _, eng := range engs {
			traceEngine(eng, lane, &conds, &intrForks)
		}
	}

	var paths, instrs, forks, queries, hits, probes, solverQueries, unknown uint64
	var ttb time.Duration
	blocks := 0
	for _, i := range shuffled(len(w.Drivers), seed) {
		d, eng := w.Drivers[i], engs[i]
		// Drop each engine once its session is done, so the round's peak
		// memory is the largest session's, whatever the order.
		engs[i] = nil
		want := w.Expected(d)
		classes := func() []string {
			var out []string
			for _, b := range eng.Bugs() {
				out = append(out, b.Class)
			}
			return out
		}
		runtime.GC() // start every session from a collected heap
		cpu0, t := cpuTime(), time.Now()
		wt := watch(classSet(want), classes)
		rep, err := eng.TestDriver(context.Background())
		found, ok := wt.done(classes, classSet(want))
		r.Wall += time.Since(t)
		r.CPU += cpuTime() - cpu0
		ttb += found
		r.Attempted++
		if err != nil {
			r.fail("symbolic-sweep %s: %v", d, err)
			continue
		}
		var got []string
		for _, b := range rep.Bugs {
			got = append(got, b.Class)
		}
		if !ok || !sameMultiset(got, want) {
			r.fail("symbolic-sweep %s: bug classes %s, want %s", d, describe(got), describe(want))
		}
		paths += uint64(rep.PathsExplored)
		instrs += rep.Instructions
		forks += rep.StatesForked
		queries += rep.SolverQueries
		hits += rep.SolverCacheHits
		st := eng.M.Solver.Stats
		probes += st.Probes
		solverQueries += st.Queries
		unknown += st.UnknownAns
		in, _ := splitLeaders(eng.Cov.CoveredBlocks(), leaders(imgs[d]))
		blocks += in
	}
	wall := r.Wall.Seconds()
	r.Values["paths_per_s"] = float64(paths) / wall
	r.Values["execs_per_s"] = float64(forks) / wall
	r.Values["time_to_bugs_s"] = ttb.Seconds()
	r.Values["blocks_covered"] = float64(blocks)
	if rec == nil {
		return r, nil
	}

	layers := rec.Layers()
	var hooks time.Duration
	for _, h := range hookNames {
		ls := layers[h]
		if ls == nil {
			ls = &LayerStat{}
		}
		r.Values[h+"_calls"] = float64(ls.Calls)
		r.Values[h+"_s"] = ls.Self.Seconds()
		hooks += ls.Self
	}
	r.Values["kernel.intr_forks"] = float64(intrForks)
	r.Values["vm.instructions"] = float64(instrs)
	r.Values["vm.forks"] = float64(forks)
	r.Values["vm.paths"] = float64(paths)
	r.Values["solver.queries"] = float64(queries)
	r.Values["solver.cache_hit_ratio"] = ratio(hits, queries)
	r.Values["solver.probes_per_query"] = ratio(probes, solverQueries)
	r.Values["solver.unknown"] = float64(unknown)
	r.Values["vm.other_s"] = (r.Wall - hooks).Seconds()
	r.Values["solver.replay_us_per_query"] = replaySolver(conds)
	return r, nil
}

// traceEngine wraps the engine's public hooks in layer spans. It must run
// after NewEngine (which installs the hooks) and before TestDriver.
func traceEngine(eng *core.Engine, rec *Lane, conds *[][]*expr.Expr, intrForks *int) {
	m := eng.M
	if h := m.APICall; h != nil {
		m.APICall = func(s *vm.State, slot int) ([]*vm.State, error) {
			defer rec.End(rec.Begin("kernel.api"))
			return h(s, slot)
		}
	}
	if h := m.ReadDevice; h != nil {
		m.ReadDevice = func(s *vm.State, addr, size uint32) *expr.Expr {
			defer rec.End(rec.Begin("hw.io"))
			return h(s, addr, size)
		}
	}
	if h := m.WriteDevice; h != nil {
		m.WriteDevice = func(s *vm.State, addr, size uint32, v *expr.Expr) {
			defer rec.End(rec.Begin("hw.io"))
			h(s, addr, size, v)
		}
	}
	if h := m.ReadPort; h != nil {
		m.ReadPort = func(s *vm.State, port uint32) *expr.Expr {
			defer rec.End(rec.Begin("hw.io"))
			return h(s, port)
		}
	}
	if h := m.WritePort; h != nil {
		m.WritePort = func(s *vm.State, port uint32, v *expr.Expr) {
			defer rec.End(rec.Begin("hw.io"))
			h(s, port, v)
		}
	}
	if h := m.OnMemAccess; h != nil {
		m.OnMemAccess = func(s *vm.State, pc, addr, size uint32, write bool, v *expr.Expr) error {
			defer rec.End(rec.Begin("checkers.mem"))
			return h(s, pc, addr, size, write, v)
		}
	}
	if h := m.PinAddress; h != nil {
		m.PinAddress = func(s *vm.State, addr *expr.Expr, size uint32, write bool) (uint32, bool) {
			defer rec.End(rec.Begin("checkers.pin"))
			return h(s, addr, size, write)
		}
	}
	if h := m.OnBlock; h != nil {
		m.OnBlock = func(s *vm.State, pc uint32) {
			defer rec.End(rec.Begin("exerciser.onblock"))
			h(s, pc)
		}
	}
	if h := eng.K.OnBoundary; h != nil {
		eng.K.OnBoundary = func(s *vm.State, api, when string) []*vm.State {
			defer rec.End(rec.Begin("kernel.intr"))
			out := h(s, api, when)
			*intrForks += len(out)
			return out
		}
	}
	// Path conditions are append-only per state, so keeping the slice
	// headers (no copy) captures them as they stood at the fork.
	prev := m.OnFork
	m.OnFork = func(parent *vm.State, children []*vm.State, cond *expr.Expr) {
		for _, c := range children {
			*conds = append(*conds, c.Constraints)
		}
		if prev != nil {
			prev(parent, children, cond)
		}
	}
}

// replaySolver re-checks each captured path condition on a fresh solver
// and returns the mean time per check in microseconds.
func replaySolver(conds [][]*expr.Expr) float64 {
	if len(conds) == 0 {
		return 0
	}
	var total time.Duration
	for _, cs := range conds {
		s := solver.New()
		t := time.Now()
		s.Check(cs)
		total += time.Since(t)
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(len(conds))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
