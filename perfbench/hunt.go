package main

import (
	"context"
	"math/rand"
	"runtime"
	"time"

	ddt "repro"
	"repro/internal/binimg"
	"repro/internal/campaign"
	"repro/internal/exerciser"
	"repro/internal/fuzz"
)

// Hunt is the fuzz-hunt workload: single-worker fuzz campaigns in the
// production configuration (persistent mode over the shared snapshot
// fabric, lazy tracing, compiled spans) on a fixed panel of campaign
// seeds per driver, each with a fixed exec budget.
type Hunt struct {
	Drivers []string
	// Seeds is the panel size: driver d runs campaigns with seeds 1..Seeds.
	Seeds int
	// Budget is each campaign's exec budget.
	Budget uint64
	// Expected returns the bug classes a campaign must find.
	Expected func(driver string) []string
}

func defaultHunt() *Hunt {
	return &Hunt{
		Drivers:  []string{"rtl8029", "amd-pcnet", "promise-ultra133"},
		Seeds:    2,
		Budget:   2500,
		Expected: expectedBugs,
	}
}

// huntSpec is one campaign of the panel.
type huntSpec struct {
	driver string
	seed   int64
	f      *fuzz.Fuzzer
}

// Round runs the whole panel once, in an order drawn from seed.
func (w *Hunt) Round(seed int64, rec *Recorder) (*Round, error) {
	r := newRound()
	t := time.Now()
	imgs, err := assemble(w.Drivers)
	if err != nil {
		return nil, err
	}
	r.Setup.Assemble = time.Since(t)
	// setup.machine_s is fuzz.New. Fuzzer.Run builds the campaign's
	// executor (vm.NewMachine: decode and span lowering) itself, so that
	// cost falls inside wall_s.
	t = time.Now()
	var hunts []huntSpec
	for _, d := range w.Drivers {
		for s := 1; s <= w.Seeds; s++ {
			cfg := fuzz.DefaultConfig()
			cfg.Options = campaign.Options{Workers: 1, MaxExecs: w.Budget, Seed: int64(s)}
			cfg.Persist = true
			hunts = append(hunts, huntSpec{driver: d, seed: int64(s), f: fuzz.New(imgs[d], cfg)})
		}
	}
	r.Setup.Machine = time.Since(t)

	var tot fuzzTotals
	var ttb time.Duration
	covered := make(map[string]map[uint32]bool)
	lane := rec.Lane()
	for _, i := range shuffled(len(hunts), seed) {
		h := hunts[i]
		// Drop each fuzzer once its campaign is done, so the round's peak
		// memory is the largest campaign's, whatever the order.
		hunts[i].f = nil
		want := classSet(w.Expected(h.driver))
		classes := func() []string {
			var out []string
			for _, c := range h.f.Crashes() {
				out = append(out, c.Class)
			}
			return out
		}
		runtime.GC() // start every campaign from a collected heap
		cpu0, t := cpuTime(), time.Now()
		wt := watch(want, classes)
		rep, err := h.f.Run(context.Background())
		found, ok := wt.done(classes, want)
		r.Wall += time.Since(t)
		r.CPU += cpuTime() - cpu0
		ttb += found
		r.Attempted++
		if err != nil {
			r.fail("fuzz-hunt %s seed %d: %v", h.driver, h.seed, err)
			continue
		}
		if !ok {
			r.fail("fuzz-hunt %s seed %d: budget of %d execs ended with classes %s, want all of %s",
				h.driver, h.seed, w.Budget, describe(classes()), describe(w.Expected(h.driver)))
		}
		replayCrashes(r, imgs[h.driver], h, rep)
		tot.add(rep)
		if covered[h.driver] == nil {
			covered[h.driver] = make(map[uint32]bool)
		}
		for _, pc := range h.f.Cov.CoveredBlocks() {
			covered[h.driver][pc] = true
		}
		if rec != nil {
			redrive(lane, imgs[h.driver], h, rep)
		}
	}
	blocks, nonLeaders := countLeaders(covered, imgs)
	wall := r.Wall.Seconds()
	r.Values["paths_per_s"] = float64(tot.corpus) / wall
	r.Values["execs_per_s"] = float64(tot.execs) / wall
	r.Values["time_to_bugs_s"] = ttb.Seconds()
	r.Values["blocks_covered"] = float64(blocks)
	if rec == nil {
		return r, nil
	}
	tot.report(r, len(hunts))
	r.Values["fuzz.nonleader_blocks"] = float64(nonLeaders)
	reportRedrive(r, rec, &tot)
	return r, nil
}

// replayCrashes checks that every crash feed of a campaign replays to its
// crash key under the campaign's executor options.
func replayCrashes(r *Round, img *binimg.Image, h huntSpec, rep *fuzz.Report) {
	opts := rep.Exec
	opts.Fabric = nil // replay on a private fabric
	for _, c := range rep.Crashes {
		res := ddt.ReplayFeedWith(img, c.Feed, opts)
		if res.Crash == nil || res.Crash.Key() != c.Key() {
			r.fail("fuzz-hunt %s seed %d: crash feed for %s does not replay", h.driver, h.seed, c.Key())
		}
	}
}

// fuzzTotals sums campaign report counters over a round's hunts.
type fuzzTotals struct {
	execs, warm, cold, instrs, skipped, triage, lazy uint64
	snapHits, snapLookups                            uint64
	warmSec, coldSec                                 float64
	corpus                                           int
}

func (t *fuzzTotals) add(rep *fuzz.Report) {
	t.execs += rep.Execs
	t.warm += rep.WarmExecs
	t.cold += rep.ColdExecs
	t.instrs += rep.Instructions
	t.skipped += rep.SkippedInstructions
	t.triage += rep.TriageExecs
	t.lazy += rep.LazyTraceReexecs
	t.snapHits += rep.SnapHits + rep.SnapSharedHits
	t.snapLookups += rep.SnapHits + rep.SnapSharedHits + rep.SnapMisses
	if rep.WarmExecsPerSec > 0 {
		t.warmSec += float64(rep.WarmExecs) / rep.WarmExecsPerSec
	}
	if rep.ColdExecsPerSec > 0 {
		t.coldSec += float64(rep.ColdExecs) / rep.ColdExecsPerSec
	}
	t.corpus += rep.CorpusSize
}

// report stores the counter-derived per-layer values.
func (t *fuzzTotals) report(r *Round, hunts int) {
	r.Values["fuzz.warm_share"] = ratio(t.warm, t.warm+t.cold)
	if t.warm > 0 {
		r.Values["fuzz.warm_exec_us"] = t.warmSec * 1e6 / float64(t.warm)
	}
	if t.cold > 0 {
		r.Values["fuzz.cold_exec_us"] = t.coldSec * 1e6 / float64(t.cold)
	}
	r.Values["fuzz.snap_hit_ratio"] = ratio(t.snapHits, t.snapLookups)
	r.Values["fuzz.instrs_per_exec"] = ratio(t.instrs, t.execs)
	r.Values["fuzz.skipped_instr_share"] = ratio(t.skipped, t.instrs)
	r.Values["fuzz.triage_execs"] = float64(t.triage)
	r.Values["fuzz.lazy_reexecs"] = float64(t.lazy)
	if hunts > 0 {
		r.Values["fuzz.corpus_size"] = float64(t.corpus) / float64(hunts)
	}
}

// redrivePasses is how many timed passes the re-drive makes over a
// campaign's feeds; a campaign's corpus is a few dozen feeds, too few
// calls for a steady per-call time from one pass.
const redrivePasses = 3

// Span names of the re-drive.
const (
	spanExecCold  = "fuzz.exec_cold"
	spanExecWarm  = "fuzz.exec_warm"
	spanRunTraced = "fuzz.runtraced"
	spanMutate    = "fuzz.mutate"
	spanCorpusAdd = "fuzz.corpus_add"
	spanChoose    = "fuzz.corpus_choose"
	spanMerge     = "exerciser.merge"
)

// redrive re-drives one finished campaign's feeds, one span per call:
// Executor.Run cold and over a warmed NewSnapFabric, RunTraced on the
// crash feeds, Mutator.Mutate, Corpus.Add and Corpus.Choose, and
// Coverage.Merge of an execution-sized batch of already covered blocks,
// as most of a running campaign's merges are.
func redrive(rec *Lane, img *binimg.Image, h huntSpec, rep *fuzz.Report) {
	feeds := h.f.Corpus().Snapshot()
	var crashFeeds []*fuzz.Feed
	for _, cr := range rep.Crashes {
		crashFeeds = append(crashFeeds, cr.Feed)
	}
	all := append(append([]*fuzz.Feed(nil), feeds...), crashFeeds...)

	coldOpts := rep.Exec
	coldOpts.Fabric, coldOpts.Persist = nil, false
	warmOpts := rep.Exec
	warmOpts.Fabric, warmOpts.Persist = fuzz.NewSnapFabric(), true
	cold := fuzz.NewExecutor(img, nil, coldOpts)
	warm := fuzz.NewExecutor(img, nil, warmOpts)
	for _, f := range all {
		// Untimed warm-up: populate the fabric, as a running campaign
		// has, and let both executors reach their steady state.
		warm.Run(f)
		cold.Run(f)
	}
	covered := h.f.Cov.CoveredBlocks()
	cov := exerciser.NewCoverage(len(covered))
	cov.Merge(covered, 0)
	off := 0
	for pass := 0; pass < redrivePasses; pass++ {
		for _, f := range all {
			id := rec.Begin(spanExecCold)
			res := cold.Run(f)
			rec.End(id)
			id = rec.Begin(spanExecWarm)
			warm.Run(f)
			rec.End(id)

			n := res.Blocks
			if n > len(covered) {
				n = len(covered)
			}
			batch := make([]uint32, 0, n)
			for k := 0; k < n; k++ {
				batch = append(batch, covered[(off+k)%len(covered)])
			}
			off += n
			id = rec.Begin(spanMerge)
			cov.Merge(batch, 0)
			rec.End(id)
		}
		for _, f := range crashFeeds {
			id := rec.Begin(spanRunTraced)
			warm.RunTraced(f)
			rec.End(id)
		}
	}
	mu := fuzz.NewMutator(h.seed)
	corp := fuzz.NewCorpus(0)
	rng := rand.New(rand.NewSource(h.seed))
	for pass := 0; pass < redrivePasses; pass++ {
		for i, f := range all {
			id := rec.Begin(spanMutate)
			mu.Mutate(f, all[(i+1)%len(all)])
			rec.End(id)
		}
		for _, f := range feeds {
			id := rec.Begin(spanCorpusAdd)
			corp.Add(f, 1)
			rec.End(id)
		}
		for range feeds {
			id := rec.Begin(spanChoose)
			corp.Choose(rng)
			rec.End(id)
		}
	}
}

// report turns the re-drive's per-call costs into per-layer values and
// weights them by the round's campaign counts: every exec runs (warm or
// cold) and merges once, a synthesized feed costs one Choose and one
// Mutate, triage re-executions run warm except the lazy-trace
// re-executions, which run traced. What the weighted layers leave of the
// hunts' wall time is campaign.residual_s.
func reportRedrive(r *Round, rec *Recorder, t *fuzzTotals) {
	layers := rec.Layers()
	perCall := func(name string) float64 {
		ls := layers[name]
		if ls == nil || ls.Calls == 0 {
			return 0
		}
		return ls.Self.Seconds() / float64(ls.Calls)
	}
	cold, warm, traced := perCall(spanExecCold), perCall(spanExecWarm), perCall(spanRunTraced)
	mutate, merge := perCall(spanMutate), perCall(spanMerge)
	add, choose := perCall(spanCorpusAdd), perCall(spanChoose)
	corpus := 0.0
	if n := layerCalls(layers, spanCorpusAdd, spanChoose); n > 0 {
		corpus = SelfSum(layers, spanCorpusAdd, spanChoose).Seconds() / float64(n)
	}
	r.Values["fuzz.exec_cold_us"] = cold * 1e6
	r.Values["fuzz.exec_warm_us"] = warm * 1e6
	r.Values["fuzz.runtraced_us"] = traced * 1e6
	r.Values["fuzz.mutate_us"] = mutate * 1e6
	r.Values["fuzz.corpus_us"] = corpus * 1e6
	r.Values["exerciser.merge_us"] = merge * 1e6

	execS := float64(t.warm)*warm + float64(t.cold)*cold
	triageS := float64(t.triage-t.lazy)*warm + float64(t.lazy)*traced
	mutateS := float64(t.execs) * mutate
	corpusS := float64(t.execs)*choose + float64(t.corpus)*add
	mergeS := float64(t.execs) * merge
	r.Values["fuzz.exec_s"] = execS
	r.Values["fuzz.triage_s"] = triageS
	r.Values["fuzz.mutate_s"] = mutateS
	r.Values["fuzz.corpus_s"] = corpusS
	r.Values["exerciser.merge_s"] = mergeS
	r.Values["campaign.residual_s"] = r.Wall.Seconds() - execS - triageS - mutateS - corpusS - mergeS
}
