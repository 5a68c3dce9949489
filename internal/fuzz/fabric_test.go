package fuzz

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/binimg"
	"repro/internal/corpus"
	"repro/internal/exerciser"
	"repro/internal/isa"
)

// TestSuperblockFuzzExecBitIdentity extends the determinism suite to the
// superblock fast path: for every corpus driver, executing the snapshot-
// stressing feed schedule with superblocks enabled (default) is
// bit-identical — steps, coverage, crash identity, consumed cursors, and
// the full trace event chain — to per-instruction dispatch
// (Options.NoSuperblocks), in both cold-start and persistent mode. The
// schedule includes interrupt feeds whose triggers land mid-span, so the
// budget capping at IRQ instants is exercised.
func TestSuperblockFuzzExecBitIdentity(t *testing.T) {
	for _, name := range corpus.Names() {
		t.Run(name, func(t *testing.T) {
			for _, persist := range []bool{false, true} {
				fastOpts := eagerOptions()
				fastOpts.Persist = persist
				slowOpts := eagerOptions()
				slowOpts.Persist = persist
				slowOpts.NoSuperblocks = true

				img, err := corpus.Build(name, corpus.Buggy)
				if err != nil {
					t.Fatal(err)
				}
				blocks := len(binimg.StaticBlocks(img))
				fast := NewExecutor(img, exerciser.NewCoverage(blocks), fastOpts)
				slow := NewExecutor(img, exerciser.NewCoverage(blocks), slowOpts)

				mu := NewMutator(5)
				for i, f := range persistFeeds(mu, 30) {
					a := fast.Run(f)
					b := slow.Run(f)
					compareExec(t, fmt.Sprintf("persist=%v feed %d", persist, i), a, b)
				}
			}
		})
	}
}

// TestFuzzCampaignSuperblocksBitIdentical is the campaign-level half: a
// full single-worker campaign with the superblock fast path on is
// bit-identical to one with it off — same crash set, same minimized
// reproducers, same coverage series, same instruction totals.
func TestFuzzCampaignSuperblocksBitIdentical(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	campaign := func(noSB bool) *Report {
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.MaxExecs = 4_000
		cfg.Persist = true
		cfg.Exec.NoSuperblocks = noSB
		rep, err := New(img, cfg).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	on := campaign(false)
	off := campaign(true)
	if !reflect.DeepEqual(crashKeys(on), crashKeys(off)) {
		t.Fatalf("bug sets differ:\n  superblocks: %v\n  per-instruction: %v", crashKeys(on), crashKeys(off))
	}
	if len(on.Crashes) == 0 {
		t.Fatal("campaign found no crashes — equality is vacuous")
	}
	for k, f := range on.CrashFeeds {
		if !f.Equal(off.CrashFeeds[k]) {
			t.Fatalf("minimized reproducer for %s differs", k)
		}
	}
	if on.Instructions != off.Instructions {
		t.Fatalf("simulated instructions %d vs %d", on.Instructions, off.Instructions)
	}
	if on.BlocksCovered != off.BlocksCovered || on.CorpusSize != off.CorpusSize {
		t.Fatalf("coverage/corpus: %d/%d vs %d/%d",
			on.BlocksCovered, on.CorpusSize, off.BlocksCovered, off.CorpusSize)
	}
	if !reflect.DeepEqual(on.CoverageSeries, off.CoverageSeries) {
		t.Fatal("coverage series diverged")
	}
	if on.LazyTraceReexecs != off.LazyTraceReexecs {
		t.Fatalf("lazy-trace re-executions %d vs %d", on.LazyTraceReexecs, off.LazyTraceReexecs)
	}
	if on.LazyTraceReexecs == 0 {
		t.Fatal("lazy campaign triaged crashes without any traced re-execution")
	}
}

// TestSharedSnapshotFabricConcurrent drives N executors against ONE
// snapshot fabric — the campaign topology — and checks the sharing
// contract: one executor's cold boot serves every other worker's resume
// (no duplicate cold boots for an already-published prefix), cross-worker
// resumes are bit-identical to that worker running cold, and the
// hit/shared-hit/miss split accounts for every lookup. Runs under -race in
// CI: the lookups, publications, and cross-executor state forks here are
// exactly the concurrent surface the fabric adds.
func TestSharedSnapshotFabricConcurrent(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	fabric := NewSnapFabric()
	opts := eagerOptions()
	opts.Persist = true
	opts.Fabric = fabric

	const workers = 4
	execs := make([]*Executor, workers)
	for i := range execs {
		execs[i] = NewExecutor(img, nil, opts)
	}
	zero := &Feed{Data: make([]byte, 64)}

	// Executor 0 publishes the boot snapshots with one cold execution.
	first := execs[0].Run(zero)
	if first.Warm {
		t.Fatal("first execution on an empty fabric was warm")
	}
	hits, shared, misses := fabric.Stats()
	if misses == 0 {
		t.Fatalf("cold boot not counted as miss (stats %d/%d/%d)", hits, shared, misses)
	}
	baseMisses := misses

	// Every worker resumes concurrently from executor 0's snapshots: all
	// warm, zero new cold boots.
	results := make([]*ExecResult, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = execs[i].Run(zero)
		}(i)
	}
	wg.Wait()

	want := NewExecutor(img, nil, eagerOptions()).Run(zero)
	for i, res := range results {
		if !res.Warm || res.SkippedSteps == 0 {
			t.Fatalf("executor %d did not resume from the shared fabric (warm=%v skip=%d)",
				i, res.Warm, res.SkippedSteps)
		}
		compareExec(t, fmt.Sprintf("executor %d shared resume", i), res, want)
	}
	hits, shared, misses = fabric.Stats()
	if misses != baseMisses {
		t.Fatalf("concurrent warm round cold-booted %d more times", misses-baseMisses)
	}
	if shared == 0 {
		t.Fatal("no lookup was served by another executor's snapshot")
	}
	if hits == 0 {
		t.Fatal("executor 0's own resume not counted as a hit")
	}
	if hits+shared != uint64(workers) {
		t.Fatalf("warm round: hits %d + shared %d != %d lookups", hits, shared, workers)
	}

	// Hammer the fabric from all workers with a diverse schedule: the
	// results must match a serial cold executor feed-for-feed.
	feedsPer := 25
	coldRes := make([][]*ExecResult, workers)
	cold := NewExecutor(img, nil, eagerOptions())
	schedules := make([][]*Feed, workers)
	for i := range schedules {
		schedules[i] = persistFeeds(NewMutator(int64(100+i)), feedsPer)
		coldRes[i] = make([]*ExecResult, len(schedules[i]))
		for j, f := range schedules[i] {
			coldRes[i][j] = cold.Run(f)
		}
	}
	warmRes := make([][]*ExecResult, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			warmRes[i] = make([]*ExecResult, len(schedules[i]))
			for j, f := range schedules[i] {
				warmRes[i][j] = execs[i].Run(f)
			}
		}(i)
	}
	wg.Wait()
	for i := range warmRes {
		for j := range warmRes[i] {
			compareExec(t, fmt.Sprintf("executor %d feed %d", i, j), warmRes[i][j], coldRes[i][j])
		}
	}
	hits, shared, misses = fabric.Stats()
	t.Logf("fabric after %d executions: %d hits / %d shared / %d misses",
		workers*(feedsPer*2+8)+workers+1, hits, shared, misses)
}

// TestFabricSharding pins the shard-routing invariants the lookup
// completeness argument rests on: snapshots that consumed data are found
// via their first-word shard, zero-word snapshots are found from the wild
// shard by any feed, and identical prefixes dedup inside one shard.
func TestFabricSharding(t *testing.T) {
	f := NewSnapFabric()
	mk := func(words int, data []byte, steps uint64) *snapshot {
		return &snapshot{stage: stageTerminal, words: words, data: data, steps: steps}
	}
	a := mk(1, []byte{9, 9, 9, 9}, 10)
	w := mk(0, nil, 5)
	f.add(a)
	f.add(w)

	if got := f.best(&Feed{Data: []byte{9, 9, 9, 9}}, 0); got != a {
		t.Fatalf("data-sharded snapshot not found: got %v", got)
	}
	// A feed with a different first word cannot match a; the wild-shard
	// snapshot (zero consumed words matches anything) must serve it.
	if got := f.best(&Feed{Data: []byte{1, 2, 3, 4}}, 0); got != w {
		t.Fatalf("wild snapshot not found for unmatched data: got %v", got)
	}
	// Dedup: re-adding the same prefix keeps one entry in its shard.
	f.add(mk(1, []byte{9, 9, 9, 9}, 20))
	sh := &f.shards[shardIndex([]byte{9, 9, 9, 9})]
	n := 0
	for _, sn := range sh.snaps {
		if sn.words == 1 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("same prefix kept %d shard entries", n)
	}
	// Stats attribution: owner hit vs shared hit vs miss.
	owner := f.register()
	other := f.register()
	a.owner = owner
	f.best(&Feed{Data: []byte{9, 9, 9, 9}}, owner)
	f.best(&Feed{Data: []byte{9, 9, 9, 9}}, other)
	hits, shared, _ := f.Stats()
	if hits == 0 || shared == 0 {
		t.Fatalf("hit split not attributed: hits=%d shared=%d", hits, shared)
	}
}

// TestRecycledPagesKeepSharedSnapshots runs many warm executions on two
// executors sharing one snapshot fabric at once. Every execution retires
// its final state, so its pages go back to its executor's page list and
// are reused by the next copy-on-write. The published snapshots must read
// exactly as before: a fresh resume, on either executor, sees the same
// stack, image and heap bytes. Runs under -race in CI.
func TestRecycledPagesKeepSharedSnapshots(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Persist = true
	opts.Fabric = NewSnapFabric()
	execs := []*Executor{NewExecutor(img, nil, opts), NewExecutor(img, nil, opts)}
	feeds := persistFeeds(NewMutator(11), 30)
	for _, f := range feeds {
		execs[0].Run(f)
	}

	snaps := resumableSnaps(opts.Fabric)
	if len(snaps) == 0 {
		t.Fatal("no resumable snapshot was recorded")
	}
	regions := [][2]uint32{
		{isa.StackBase - isa.StackSize, isa.StackSize},
		{img.DataBase(), img.LimitVA() - img.DataBase()},
		{isa.HeapBase, 0x4000},
	}
	digest := func(e *Executor, sn *snapshot) string {
		s := e.m.ResumeState(sn.state)
		defer s.Retire()
		var out []byte
		for _, r := range regions {
			b, ok := s.Mem.ReadBytesConcrete(r[0], r[1])
			if !ok {
				t.Fatalf("snapshot memory at %#x holds symbolic bytes", r[0])
			}
			out = append(out, b...)
		}
		return string(out)
	}
	before := make([]string, len(snaps))
	for i, sn := range snaps {
		before[i] = digest(execs[0], sn)
	}

	var wg sync.WaitGroup
	for _, e := range execs {
		wg.Add(1)
		go func(e *Executor) {
			defer wg.Done()
			for pass := 0; pass < 4; pass++ {
				for _, f := range feeds {
					e.Run(f)
				}
			}
		}(e)
	}
	wg.Wait()

	for i, sn := range snaps {
		for j, e := range execs {
			if digest(e, sn) != before[i] {
				t.Fatalf("snapshot %d reads differently on executor %d after recycled warm executions", i, j)
			}
		}
	}
}

// resumableSnaps lists the fabric's snapshots that hold a state. It reads
// the shards unlocked: call it only while no executor runs on the fabric.
func resumableSnaps(f *SnapFabric) []*snapshot {
	var snaps []*snapshot
	shards := []*snapShard{&f.wild}
	for i := range f.shards {
		shards = append(shards, &f.shards[i])
	}
	for _, sh := range shards {
		for _, sn := range sh.snaps {
			if sn.state != nil {
				snaps = append(snaps, sn)
			}
		}
	}
	return snaps
}

// TestConcurrentResumesOfLayeredSnapshot: several executors on one fabric
// resume the same two-layer snapshot at once. The snapshot was recorded
// after Initialize by an execution that resumed from the boot snapshot, so
// its block counts are a layer of the blocks visited since that resume
// over the boot snapshot's layer, and every resume counts on top of both.
// Each execution must report the blocks and the crash a cold traced
// execution of its feed reports. Runs under -race in CI.
func TestConcurrentResumesOfLayeredSnapshot(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Persist = true
	opts.Fabric = NewSnapFabric()
	rec := NewExecutor(img, nil, opts)

	// Record until an execution resumed from the boot snapshot publishes
	// an Initialize snapshot of its own.
	var layered *snapshot
	var recFeed *Feed
	for _, f := range persistFeeds(NewMutator(7), 40) {
		before := map[*snapshot]bool{}
		for _, sn := range resumableSnaps(opts.Fabric) {
			before[sn] = true
		}
		if !rec.Run(f).Warm {
			continue
		}
		for _, sn := range resumableSnaps(opts.Fabric) {
			if !before[sn] && sn.stage == stageInitialized {
				layered, recFeed = sn, f
			}
		}
		if layered != nil {
			break
		}
	}
	if layered == nil {
		t.Fatal("no warm execution recorded an Initialize snapshot")
	}

	// Executor 0 runs the recording feed. The others keep its consumed
	// prefix and append a tail of their own, read only after the resume.
	const workers = 4
	feeds := make([]*Feed, workers)
	want := make([]*ExecResult, workers)
	cold := NewExecutor(img, nil, opts)
	mu := NewMutator(3)
	for g := range feeds {
		f := recFeed
		if g > 0 {
			data := make([]byte, 4*layered.words)
			copy(data, recFeed.Data)
			f = &Feed{Data: append(data, mu.Generate().Data...), Forks: recFeed.Forks, IRQ: recFeed.IRQ}
		}
		feeds[g] = f
		if want[g] = cold.RunTraced(f); want[g].Warm {
			t.Fatalf("feed %d: traced reference run resumed a snapshot", g)
		}
	}

	execs := make([]*Executor, workers)
	for g := range execs {
		execs[g] = NewExecutor(img, nil, opts)
	}
	got := make([][]*ExecResult, workers)
	var wg sync.WaitGroup
	for g := range execs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ { // the later runs restore into the kept state
				got[g] = append(got[g], execs[g].Run(feeds[g]))
			}
		}(g)
	}
	wg.Wait()
	crashes := 0
	for g, runs := range got {
		for i, res := range runs {
			tag := fmt.Sprintf("executor %d run %d", g, i)
			if !res.Warm || res.SkippedSteps != layered.steps {
				t.Fatalf("%s: did not resume the layered snapshot (warm %v, skipped %d of %d steps)",
					tag, res.Warm, res.SkippedSteps, layered.steps)
			}
			w := want[g]
			if res.Blocks != w.Blocks || res.Steps != w.Steps {
				t.Fatalf("%s: %d blocks in %d steps, cold traced run %d in %d", tag, res.Blocks, res.Steps, w.Blocks, w.Steps)
			}
			if (res.Crash == nil) != (w.Crash == nil) || res.Crash != nil && res.Crash.Key() != w.Crash.Key() {
				t.Fatalf("%s: crash %v, cold traced run %v", tag, res.Crash, w.Crash)
			}
			if res.Crash != nil {
				crashes++
			}
		}
	}
	t.Logf("layered snapshot after %d steps; %d of %d resumed executions crashed", layered.steps, crashes, workers*3)
}
