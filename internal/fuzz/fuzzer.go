package fuzz

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binimg"
	"repro/internal/campaign"
	"repro/internal/exerciser"
)

// Config configures one fuzzing campaign. The campaign envelope (workers,
// exec/time budgets, seed, stop condition) is the embedded
// campaign.Options, and the remaining fields are the fuzzer's own knobs.
//
// Envelope semantics: Workers is the parallel fuzzing goroutine count;
// MaxExecs bounds total executions (0 with Duration also 0 applies a
// default exec budget); Duration bounds wall-clock time; Seed derives the
// per-worker random streams (Seed+workerID — a single-worker run with a
// fixed seed is fully reproducible); StopAtFirstBug ends the campaign at
// the first deduplicated crash.
type Config struct {
	campaign.Options
	// CorpusDir, when set, is loaded as initial seeds and receives the
	// final corpus plus every crash reproducer.
	CorpusDir string
	// Seeds are additional initial feeds (e.g. from the concolic bridge).
	Seeds []*Feed
	// MinimizeBudget bounds the per-crash feed-minimization executions.
	MinimizeBudget int
	// Persist enables persistent-mode executors: boot phases (DriverEntry +
	// Initialize) run once per boot prefix and later executions resume from
	// the snapshot (Options.Persist; see snapshot.go). Results are
	// bit-identical to cold-start execution — only the wall clock changes.
	// All workers share one snapshot fabric, so the fleet cold-boots each
	// boot prefix once, not once per worker.
	Persist bool
	// Dict mines a dictionary of instruction immediates (OID constants,
	// magic values) from the driver image and enables the mutator's
	// dictionary-splice operators.
	Dict bool
	// Exec configures the per-worker executors.
	Exec Options
}

// DefaultConfig returns a small deterministic campaign configuration.
func DefaultConfig() Config {
	return Config{
		Options: campaign.Options{
			Workers:  4,
			MaxExecs: 20_000,
			Seed:     1,
		},
		MinimizeBudget: 48,
		Exec:           DefaultOptions(),
	}
}

// Report summarizes a fuzzing campaign.
type Report struct {
	Driver  string `json:"driver"`
	Workers int    `json:"workers"`
	// Execs counts completed workload executions (minimization and crash
	// verification re-executions excluded).
	Execs uint64 `json:"execs"`
	// TriageExecs counts the extra executions spent verifying and
	// minimizing crashes.
	TriageExecs uint64 `json:"triage_execs"`
	// LazyTraceReexecs counts the traced re-executions spent materializing
	// full trace chains under Options.LazyTrace (crash verification runs
	// traced, so each deduplicated crash costs exactly one). A subset of
	// TriageExecs; zero when tracing is eager.
	LazyTraceReexecs uint64 `json:"lazy_trace_reexecs,omitempty"`
	// Instructions is total simulated instructions across all workers. With
	// persistent mode on, boot instructions a snapshot resume logically
	// replayed without re-executing are included, so the simulated-time axis
	// (and the coverage series on it) is identical to a cold-start campaign;
	// SkippedInstructions reports how many of them never actually ran.
	Instructions uint64 `json:"instructions"`
	// Persistent-mode split (Config.Persist): campaign executions that ran
	// the full boot (cold) versus resumed from a snapshot or memoized boot
	// (warm). The per-sec figures are PER-WORKER throughput — executions
	// divided by the worker time spent in that mode, i.e. the inverse mean
	// execution duration — so cold and warm are directly comparable to
	// each other at any worker count; multiply by Workers to compare
	// against the fleet-wide ExecsPerSec. Triage re-executions are not
	// included in the split.
	ColdExecs           uint64  `json:"cold_execs"`
	WarmExecs           uint64  `json:"warm_execs"`
	ColdExecsPerSec     float64 `json:"cold_execs_per_sec_per_worker"`
	WarmExecsPerSec     float64 `json:"warm_execs_per_sec_per_worker"`
	SkippedInstructions uint64  `json:"skipped_instructions"`
	// Snapshot-fabric lookup split (Config.Persist): executions served by a
	// snapshot the same worker recorded (hits), by another worker's
	// snapshot (shared hits — the fabric's contribution over private
	// caches), and cold lookups that found nothing (misses).
	SnapHits       uint64 `json:"snap_hits,omitempty"`
	SnapSharedHits uint64 `json:"snap_shared_hits,omitempty"`
	SnapMisses     uint64 `json:"snap_misses,omitempty"`
	// DictWords is the mined dictionary size (Config.Dict).
	DictWords int `json:"dict_words,omitempty"`
	// Crashes are the deduplicated crashes in discovery order.
	Crashes []*Crash `json:"crashes"`
	// CrashFeeds maps crash keys to their minimized reproducer feeds.
	CrashFeeds map[string]*Feed `json:"crash_feeds"`
	// CorpusSize is the final corpus entry count.
	CorpusSize int `json:"corpus_size"`
	// BlocksCovered / BlocksStatic give the coverage ratio.
	BlocksCovered int `json:"blocks_covered"`
	BlocksStatic  int `json:"blocks_static"`
	// CoverageSeries is coverage over simulated time (total instructions).
	CoverageSeries []exerciser.CoveragePoint `json:"coverage_series"`
	// Exec records the executor options the campaign ran with; replaying a
	// crash feed requires the same options (annotation sites consume feed
	// words, so a mismatch shifts the whole stream).
	Exec Options `json:"exec_options"`
	// Elapsed is wall-clock campaign time; ExecsPerSec = Execs/Elapsed.
	Elapsed     time.Duration `json:"elapsed_ns"`
	ExecsPerSec float64       `json:"execs_per_sec"`
}

// CountByClass tallies crashes per Table 2 category.
func (r *Report) CountByClass() map[string]int {
	out := make(map[string]int)
	for _, c := range r.Crashes {
		out[c.Class]++
	}
	return out
}

// String renders the report as console output.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fuzz report for driver %q\n", r.Driver)
	fmt.Fprintf(&sb, "  execs: %d (+%d triage) in %v (%.0f execs/sec, %d workers)\n",
		r.Execs, r.TriageExecs, r.Elapsed.Round(time.Millisecond), r.ExecsPerSec, r.Workers)
	if r.Exec.Persist {
		fmt.Fprintf(&sb, "  persistent: %d cold (%.0f/sec/worker) / %d warm (%.0f/sec/worker), %d boot instructions skipped\n",
			r.ColdExecs, r.ColdExecsPerSec, r.WarmExecs, r.WarmExecsPerSec, r.SkippedInstructions)
		fmt.Fprintf(&sb, "  snapshot fabric: %d hits / %d shared hits / %d misses\n",
			r.SnapHits, r.SnapSharedHits, r.SnapMisses)
	}
	if r.DictWords > 0 {
		fmt.Fprintf(&sb, "  dictionary: %d mined immediates\n", r.DictWords)
	}
	fmt.Fprintf(&sb, "  coverage: %d/%d basic blocks, corpus: %d feeds\n",
		r.BlocksCovered, r.BlocksStatic, r.CorpusSize)
	if len(r.Crashes) == 0 {
		sb.WriteString("  no crashes found\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "  %d deduplicated crash(es):\n", len(r.Crashes))
	classes := r.CountByClass()
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		fmt.Fprintf(&sb, "    %-20s %d\n", c, classes[c])
	}
	for i, c := range r.Crashes {
		repro := "replayable feed verified"
		if !c.Reproduced {
			repro = "NOT reproduced on replay"
		}
		fmt.Fprintf(&sb, "  crash %d: %s  [%s]\n", i+1, c, repro)
	}
	return sb.String()
}

// Fuzzer is one coverage-guided fuzzing campaign bound to a driver image.
type Fuzzer struct {
	img *binimg.Image
	cfg Config

	// Cov is the campaign's thread-safe coverage map: corpus novelty and
	// the report's coverage come from it.
	Cov *exerciser.Coverage

	corpus  *Corpus
	crashes *crashStore
	queue   stack[*Feed]
	dict    *Dictionary

	// mu guards started, the number of executions the envelope admitted.
	mu      sync.Mutex
	started uint64

	execsDone    atomic.Uint64
	triageExecs  atomic.Uint64
	lazyReexecs  atomic.Uint64
	steps        atomic.Uint64
	coldExecs    atomic.Uint64
	warmExecs    atomic.Uint64
	coldNS       atomic.Uint64
	warmNS       atomic.Uint64
	skippedSteps atomic.Uint64

	// fabric is the campaign-wide snapshot store every worker executor
	// shares (nil unless Persist).
	fabric *SnapFabric
}

// New prepares a campaign. The coverage denominator comes from the image's
// static block discovery, exactly as in the symbolic engine.
func New(img *binimg.Image, cfg Config) *Fuzzer {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.MaxExecs == 0 && cfg.Duration == 0 {
		cfg.MaxExecs = DefaultConfig().MaxExecs
	}
	if cfg.MinimizeBudget == 0 {
		cfg.MinimizeBudget = DefaultConfig().MinimizeBudget
	}
	// Per-field executor defaults: a caller-built Options struct keeps every
	// field it set explicitly (Annotations false and Registry overrides
	// included).
	def := DefaultOptions()
	if cfg.Exec.MaxStepsPerEntry == 0 {
		cfg.Exec.MaxStepsPerEntry = def.MaxStepsPerEntry
	}
	if cfg.Exec.MaxInterrupts == 0 {
		cfg.Exec.MaxInterrupts = def.MaxInterrupts
	}
	if cfg.Exec.LoopThreshold == 0 {
		cfg.Exec.LoopThreshold = def.LoopThreshold
	}
	if cfg.Persist {
		cfg.Exec.Persist = true
	}
	var fabric *SnapFabric
	if cfg.Exec.Persist {
		if cfg.Exec.Fabric == nil {
			cfg.Exec.Fabric = NewSnapFabric()
		}
		fabric = cfg.Exec.Fabric
	}
	f := &Fuzzer{
		img:     img,
		cfg:     cfg,
		Cov:     exerciser.NewCoverage(len(binimg.StaticBlocks(img))),
		corpus:  NewCorpus(0),
		crashes: newCrashStore(),
		fabric:  fabric,
	}
	if cfg.Dict {
		f.dict = MineDictionary(img)
	}
	return f
}

// Corpus exposes the campaign's corpus (a manager-attached worker exports
// it to the fleet).
func (f *Fuzzer) Corpus() *Corpus { return f.corpus }

// InjectSeeds queues feeds into the running campaign. Safe for concurrent
// use while Run is in flight — this is how a manager-attached worker folds
// fleet corpus deltas into its own search without restarting the campaign.
func (f *Fuzzer) InjectSeeds(feeds []*Feed) {
	for _, feed := range feeds {
		f.queue.Push(feed)
	}
}

// Crashes returns the deduplicated crashes found so far, in discovery
// order. Safe to call while the campaign runs — the periodic manager
// report reads it mid-flight.
func (f *Fuzzer) Crashes() []*Crash { return f.crashes.list() }

// Stats reports live campaign progress: completed executions and total
// simulated instructions. Safe to call while the campaign runs.
func (f *Fuzzer) Stats() (execs, instructions uint64) {
	return f.execsDone.Load(), f.steps.Load()
}

// Run executes the campaign on Config.Workers goroutines and returns its
// report. Each worker checks the envelope (ctx, MaxExecs, Duration,
// StopAtFirstBug) before every execution. Run returns only after every
// worker has quiesced. Cancelling ctx stops the campaign mid-run:
// in-flight executions finish but their results are not admitted, so
// corpus, crashes, and coverage are frozen when Run returns.
func (f *Fuzzer) Run(ctx context.Context) (*Report, error) {
	start := time.Now()

	// Initial seeds: explicit, persisted corpus, and the all-zero feed
	// (the deterministic "quiet hardware" baseline path).
	seeds := append([]*Feed(nil), f.cfg.Seeds...)
	if f.cfg.CorpusDir != "" {
		loaded, err := LoadDir(f.cfg.CorpusDir)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, loaded...)
	}
	seeds = append(seeds, &Feed{Data: make([]byte, 64)})
	for _, s := range seeds {
		f.queue.Push(s)
	}

	// Per-worker executors and mutators, allocated up front.
	execs := make([]*Executor, f.cfg.Workers)
	mus := make([]*Mutator, f.cfg.Workers)
	for w := range execs {
		execs[w], mus[w] = f.newWorker(w)
	}
	var deadline time.Time
	if f.cfg.Duration > 0 {
		deadline = time.Now().Add(f.cfg.Duration)
	}
	var wg sync.WaitGroup
	for w := range execs {
		wg.Add(1)
		go func(exec *Executor, mu *Mutator) {
			defer wg.Done()
			for f.admit(ctx, deadline) {
				f.execOne(ctx, exec, mu)
			}
		}(execs[w], mus[w])
	}
	wg.Wait()

	elapsed := time.Since(start)
	rep := &Report{
		Driver:              f.img.Name,
		Workers:             f.cfg.Workers,
		Execs:               f.execsDone.Load(),
		TriageExecs:         f.triageExecs.Load(),
		LazyTraceReexecs:    f.lazyReexecs.Load(),
		Instructions:        f.steps.Load(),
		ColdExecs:           f.coldExecs.Load(),
		WarmExecs:           f.warmExecs.Load(),
		SkippedInstructions: f.skippedSteps.Load(),
		Crashes:             f.crashes.list(),
		CrashFeeds:          make(map[string]*Feed),
		CorpusSize:          f.corpus.Len(),
		BlocksCovered:       f.Cov.Blocks(),
		BlocksStatic:        f.Cov.TotalStatic,
		CoverageSeries:      f.Cov.Series(),
		Exec:                f.cfg.Exec,
		Elapsed:             elapsed,
	}
	for _, c := range rep.Crashes {
		rep.CrashFeeds[c.Key()] = c.Feed
	}
	if sec := elapsed.Seconds(); sec > 0 {
		rep.ExecsPerSec = float64(rep.Execs) / sec
	}
	if ns := f.coldNS.Load(); ns > 0 {
		rep.ColdExecsPerSec = float64(rep.ColdExecs) / (float64(ns) / 1e9)
	}
	if ns := f.warmNS.Load(); ns > 0 {
		rep.WarmExecsPerSec = float64(rep.WarmExecs) / (float64(ns) / 1e9)
	}
	if f.fabric != nil {
		rep.SnapHits, rep.SnapSharedHits, rep.SnapMisses = f.fabric.Stats()
	}
	if f.dict != nil {
		rep.DictWords = f.dict.Len()
	}
	if f.cfg.CorpusDir != "" {
		if err := f.corpus.SaveDir(f.cfg.CorpusDir); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// newWorker builds worker w's executor and mutator. Its random stream is
// Seed+w regardless of scheduling.
func (f *Fuzzer) newWorker(w int) (*Executor, *Mutator) {
	ex := NewExecutor(f.img, f.Cov, f.cfg.Exec)
	ex.TimeBase = f.steps.Load
	mu := NewMutator(f.cfg.Seed + int64(w))
	mu.Dict = f.dict
	return ex, mu
}

// admit reports whether the envelope lets a worker start one more
// execution, and counts the execution when it does.
func (f *Fuzzer) admit(ctx context.Context, deadline time.Time) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case ctx.Err() != nil,
		f.cfg.StopAtFirstBug && f.crashes.count() > 0,
		f.cfg.MaxExecs > 0 && f.started >= f.cfg.MaxExecs,
		!deadline.IsZero() && time.Now().After(deadline):
		return false
	}
	f.started++
	return true
}

// execOne runs one campaign execution: pop the triage stack (fresh seeds
// and neighbors of fresh coverage), or synthesize a feed when it is empty
// (corpus mutation or generation), execute, and admit the results — unless
// ctx was canceled while the execution was in flight (the quiescence
// contract: post-cancel results are dropped, not admitted). The campaign
// ends on a budget or cancellation, never on an empty queue.
func (f *Fuzzer) execOne(ctx context.Context, exec *Executor, mu *Mutator) {
	feed, _ := f.queue.Pop()
	if feed == nil {
		if base := f.corpus.Choose(mu.rng); base != nil {
			feed = mu.Mutate(base, f.corpus.RandomDonor(mu.rng))
		} else {
			feed = mu.Generate()
		}
	}

	persist := f.cfg.Exec.Persist
	var t0 time.Time
	if persist {
		t0 = time.Now()
	}
	res := exec.Run(feed)
	if persist {
		d := uint64(time.Since(t0))
		if res.Warm {
			f.warmExecs.Add(1)
			f.warmNS.Add(d)
			f.skippedSteps.Add(res.SkippedSteps)
		} else {
			f.coldExecs.Add(1)
			f.coldNS.Add(d)
		}
	}
	f.execsDone.Add(1)
	f.steps.Add(res.Steps)

	if ctx.Err() != nil {
		return
	}
	if res.Crash != nil {
		f.triageCrash(exec, feed, res)
		return
	}
	if res.NewBlocks > 0 {
		admitted := trimFeed(feed, res)
		if f.corpus.Add(admitted, res.NewBlocks) {
			// Focused follow-up: queue close mutants of the novel feed.
			for i := 0; i < 3; i++ {
				f.queue.Push(mu.Mutate(admitted, nil))
			}
		}
	}
}

// triageCrash verifies, deduplicates, minimizes, and records one crash.
func (f *Fuzzer) triageCrash(exec *Executor, feed *Feed, res *ExecResult) {
	c := res.Crash
	c.Exec = f.execsDone.Load()
	c.Feed = trimFeed(feed, res)

	// Crashing feeds that discovered coverage are corpus material either
	// way: without admission, no corpus entry could ever cover the path to
	// the crash and mutation could not explore around it.
	if res.NewBlocks > 0 {
		f.corpus.Add(c.Feed, res.NewBlocks)
	}
	// Dedup before spending triage budget.
	if !f.crashes.add(c) {
		return
	}

	minFeed := f.minimize(exec, c)
	// Verification: the minimized feed must deterministically reproduce the
	// same fault site and class. finalize publishes both under the store
	// lock, so concurrent Crashes() readers never see a half-triaged entry.
	// The verification runs traced: under lazy tracing this is the one
	// place a crash's full trace chain is rematerialized (by exact cold
	// re-execution), at no extra execution cost — the verification had to
	// run anyway.
	ver := exec.RunTraced(minFeed)
	f.triageExecs.Add(1)
	if f.cfg.Exec.LazyTrace {
		f.lazyReexecs.Add(1)
	}
	f.crashes.finalize(c, minFeed, ver.Crash != nil && ver.Crash.Key() == c.Key())

	if f.cfg.CorpusDir != "" {
		dir := filepath.Join(f.cfg.CorpusDir, "crashes")
		if err := os.MkdirAll(dir, 0o755); err == nil {
			name := strings.NewReplacer("@", "-", " ", "-", "/", "-").Replace(c.Key())
			_ = SaveFeed(minFeed, filepath.Join(dir, name+".json"))
		}
	}
}

// minimize shrinks a crash feed while it still reproduces the same crash
// key: repeated data-halving, then dropping fork decisions and interrupt
// triggers, bounded by the configured execution budget.
func (f *Fuzzer) minimize(exec *Executor, c *Crash) *Feed {
	budget := f.cfg.MinimizeBudget
	cur := c.Feed
	try := func(cand *Feed) bool {
		if budget <= 0 {
			return false
		}
		budget--
		r := exec.Run(cand)
		f.triageExecs.Add(1)
		if r.Crash != nil && r.Crash.Key() == c.Key() {
			cur = trimFeed(cand, r)
			return true
		}
		return false
	}
	// Halve the data stream while the crash survives.
	for len(cur.Data) > 4 && budget > 0 {
		cand := cur.Clone()
		cand.Data = cand.Data[:len(cand.Data)/2]
		if !try(cand) {
			break
		}
	}
	// Drop fork decisions back to the primary outcome, last first.
	for i := len(cur.Forks) - 1; i >= 0 && budget > 0; i-- {
		if i >= len(cur.Forks) {
			continue
		}
		cand := cur.Clone()
		cand.Forks = cand.Forks[:i]
		try(cand)
	}
	// Drop interrupt triggers.
	for i := len(cur.IRQ) - 1; i >= 0 && budget > 0; i-- {
		if i >= len(cur.IRQ) {
			continue
		}
		cand := cur.Clone()
		cand.IRQ = append(cand.IRQ[:i:i], cand.IRQ[i+1:]...)
		try(cand)
	}
	return cur
}

// trimFeed cuts a feed to the prefix the execution actually consumed —
// free, exact minimization for corpus entries.
func trimFeed(f *Feed, res *ExecResult) *Feed {
	t := f.Clone()
	if res.ConsumedData < len(t.Data) {
		t.Data = t.Data[:res.ConsumedData]
	}
	if res.ConsumedForks < len(t.Forks) {
		t.Forks = t.Forks[:res.ConsumedForks]
	}
	if res.ConsumedIRQ < len(t.IRQ) {
		t.IRQ = t.IRQ[:res.ConsumedIRQ]
	}
	return t
}
