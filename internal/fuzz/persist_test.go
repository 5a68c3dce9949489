package fuzz

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exerciser"
	"repro/internal/vm"
)

// eventSig renders one trace event as a comparable signature covering every
// field the concrete executor can produce (symbolic-only fields — Sym,
// Cond — never appear under a feed SymbolPolicy).
func eventSig(ev vm.Event) string {
	val := ""
	if ev.Val != nil {
		val = ev.Val.String()
	}
	return fmt.Sprintf("%v seq=%d pc=%#x addr=%#x sz=%d w=%v taken=%v forked=%v name=%q val=%s",
		ev.Kind, ev.Seq, ev.PC, ev.Addr, ev.Size, ev.Write, ev.Taken, ev.Forked, ev.Name, val)
}

func traceSigs(t *vm.TraceNode) []string {
	if t == nil {
		return nil
	}
	evs := t.Path()
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = eventSig(ev)
	}
	return out
}

// compareExec asserts two executions of the same feed are bit-identical in
// everything the fuzzer observes: steps, coverage, crash identity, entry
// log, consumed cursors, and the full trace event sequence.
func compareExec(t *testing.T, tag string, a, b *ExecResult) {
	t.Helper()
	if a.Steps != b.Steps {
		t.Fatalf("%s: steps %d vs %d", tag, a.Steps, b.Steps)
	}
	if a.Blocks != b.Blocks || a.NewBlocks != b.NewBlocks {
		t.Fatalf("%s: coverage %d/%d vs %d/%d", tag, a.Blocks, a.NewBlocks, b.Blocks, b.NewBlocks)
	}
	if a.ConsumedData != b.ConsumedData || a.ConsumedForks != b.ConsumedForks || a.ConsumedIRQ != b.ConsumedIRQ {
		t.Fatalf("%s: consumed (%d,%d,%d) vs (%d,%d,%d)", tag,
			a.ConsumedData, a.ConsumedForks, a.ConsumedIRQ,
			b.ConsumedData, b.ConsumedForks, b.ConsumedIRQ)
	}
	if strings.Join(a.Entries, ",") != strings.Join(b.Entries, ",") {
		t.Fatalf("%s: entries %v vs %v", tag, a.Entries, b.Entries)
	}
	if (a.Crash == nil) != (b.Crash == nil) {
		t.Fatalf("%s: crash %v vs %v", tag, a.Crash, b.Crash)
	}
	if a.Crash != nil && (a.Crash.Key() != b.Crash.Key() || a.Crash.PC != b.Crash.PC ||
		a.Crash.Entry != b.Crash.Entry || a.Crash.InInterrupt != b.Crash.InInterrupt) {
		t.Fatalf("%s: crash identity %+v vs %+v", tag, a.Crash, b.Crash)
	}
	as, bs := traceSigs(a.Trace), traceSigs(b.Trace)
	if len(as) != len(bs) {
		t.Fatalf("%s: trace length %d vs %d", tag, len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("%s: trace event %d differs:\n  %s\n  %s", tag, i, as[i], bs[i])
		}
	}
}

// eagerOptions is DefaultOptions with eager tracing: this suite compares
// full trace chains execution by execution, which the lazy-trace default
// would leave nil on both sides (making the comparison vacuous). The
// lazy-trace determinism suite (lazytrace_test.go) covers the lazy side.
func eagerOptions() Options {
	o := DefaultOptions()
	o.LazyTrace = false
	return o
}

// persistFeeds builds a feed schedule that exercises the snapshot cache
// hard: repeats (exact prefix hits), tail-extensions of earlier feeds
// (warm resumes past the boot), boot-prefix mutants (snapshot misses and
// re-records), generated feeds, and interrupt schedules.
func persistFeeds(mu *Mutator, n int) []*Feed {
	feeds := []*Feed{
		{Data: make([]byte, 64)},   // the quiet-hardware baseline seed
		{Data: make([]byte, 64)},   // exact repeat: must hit the snapshot
		{},                         // empty feed: all-zero effective stream
		{Data: make([]byte, 256)},  // longer zero tail, same effective boot
		{Data: []byte{1, 0, 0, 0}}, // boot-prefix mutation
		{Data: make([]byte, 64), IRQ: []uint64{0}},       // IRQ mid-boot: must bypass
		{Data: make([]byte, 64), IRQ: []uint64{1 << 40}}, // IRQ far beyond: may resume
		{Data: make([]byte, 64), Forks: []byte{1, 1}},    // alternative API outcomes
	}
	base := &Feed{Data: make([]byte, 96)}
	for i := 0; i < n; i++ {
		feeds = append(feeds, mu.Mutate(base, nil), mu.Generate())
	}
	return feeds
}

// TestPersistentExecBitIdentical is the determinism suite's core property:
// for every corpus driver, a persistent-mode execution — whether it runs
// cold, resumes from a snapshot, or returns a memoized boot — is
// bit-identical to a cold-start execution of the same feed, in coverage,
// crash identity, and the full trace event sequence. Both executors run
// the same feed sequence against their own coverage maps, so the global
// novelty history matches execution by execution.
func TestPersistentExecBitIdentical(t *testing.T) {
	for _, name := range corpus.Names() {
		t.Run(name, func(t *testing.T) {
			img, err := corpus.Build(name, corpus.Buggy)
			if err != nil {
				t.Fatal(err)
			}
			warmOpts := eagerOptions()
			warmOpts.Persist = true
			warm := NewExecutor(img, exerciser.NewCoverage(len(binimg.StaticBlocks(img))), warmOpts)
			cold := NewExecutor(img, exerciser.NewCoverage(len(binimg.StaticBlocks(img))), eagerOptions())

			mu := NewMutator(5)
			warmHits := 0
			for i, f := range persistFeeds(mu, 40) {
				a := warm.Run(f)
				b := cold.Run(f)
				if a.Warm {
					warmHits++
					if a.SkippedSteps == 0 {
						t.Fatalf("feed %d: warm execution skipped nothing", i)
					}
				}
				compareExec(t, fmt.Sprintf("feed %d", i), a, b)
			}
			if warmHits == 0 {
				t.Fatal("no execution ever resumed from a snapshot")
			}
			t.Logf("%s: %d/%d executions warm", name, warmHits, len(persistFeeds(NewMutator(5), 40)))
		})
	}
}

// TestSnapshotInvalidation covers the edge cases that must bypass or
// rebuild a snapshot instead of replaying a stale one.
func TestSnapshotInvalidation(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	opts := eagerOptions()
	opts.Persist = true

	t.Run("mutated boot prefix", func(t *testing.T) {
		e := NewExecutor(img, nil, opts)
		zero := &Feed{Data: make([]byte, 64)}
		e.Run(zero)
		r2 := e.Run(zero)
		if !r2.Warm {
			t.Fatal("identical feed did not hit the snapshot")
		}
		// Flip a byte of the consumed boot prefix: the Initialize-stage
		// snapshot must not be reused. The mutant may still resume from the
		// DriverEntry-stage snapshot — DriverEntry consumes no feed words on
		// this driver, so every feed shares that prefix — which is why the
		// precise assertion is on how much was skipped, plus exact equality
		// with a fresh cold executor.
		mutant := zero.Clone()
		mutant.Data[0] ^= 0xFF
		got := e.Run(mutant)
		if got.SkippedSteps >= r2.SkippedSteps {
			t.Fatalf("boot-prefix mutant skipped %d steps, the stale deep snapshot's %d",
				got.SkippedSteps, r2.SkippedSteps)
		}
		want := NewExecutor(img, nil, eagerOptions()).Run(mutant)
		compareExec(t, "boot-prefix mutant", got, want)
		if got.Crash == nil {
			t.Fatal("expected this mutant to crash in Initialize (registry corruption)")
		}
		// Crashing boots are never snapshotted or memoized — triage replays
		// must exercise the live path — so the repeat skips no more than the
		// first run did, and reproduces the identical crash.
		r := e.Run(mutant)
		if r.SkippedSteps != got.SkippedSteps {
			t.Fatalf("crashing boot was memoized: skip %d vs %d", r.SkippedSteps, got.SkippedSteps)
		}
		compareExec(t, "crashing mutant repeat", r, want)
	})

	t.Run("clean boot failure is memoized and rebuilt", func(t *testing.T) {
		// Find a boot-prefix mutant that makes Initialize fail cleanly (no
		// crash, workload ends at the Initialize gate). On amd-pcnet clean
		// failure paths are reachable by flipping early feed bytes; on
		// rtl8029 every word-0 flip trips the planted registry bug, which
		// the crashing-boot case above covers.
		pcnet, err := corpus.Build("amd-pcnet", corpus.Buggy)
		if err != nil {
			t.Fatal(err)
		}
		probe := NewExecutor(pcnet, nil, eagerOptions())
		mu := NewMutator(17)
		var mutant *Feed
		var wantRes *ExecResult
		for i := 0; i < 500; i++ {
			f := mu.Generate()
			f.IRQ = nil // keep the memo decision purely data-driven
			res := probe.Run(f)
			if res.Crash == nil && len(res.Entries) == 2 {
				mutant, wantRes = f, res
				break
			}
		}
		if mutant == nil {
			t.Fatal("no clean Initialize failure found in 500 generated feeds")
		}
		e := NewExecutor(pcnet, nil, opts)
		e.Run(&Feed{Data: make([]byte, 64)}) // prime the zero-prefix snapshots
		first := e.Run(mutant)
		compareExec(t, "clean-failure mutant", first, wantRes)
		// The failed boot was memoized under the mutant's own prefix: the
		// repeat skips the entire execution.
		r := e.Run(mutant)
		if !r.Warm || r.SkippedSteps != r.Steps {
			t.Fatalf("clean boot failure not fully memoized: warm=%v skip=%d steps=%d",
				r.Warm, r.SkippedSteps, r.Steps)
		}
		compareExec(t, "memoized repeat", r, wantRes)
	})

	t.Run("irq during boot bypasses", func(t *testing.T) {
		e := NewExecutor(img, nil, opts)
		zero := &Feed{Data: make([]byte, 64)}
		e.Run(zero)
		deep := e.Run(zero)
		if !deep.Warm {
			t.Fatal("identical feed did not hit the snapshot")
		}
		// An interrupt trigger below the Initialize segment's last
		// injection-eligible instant could have fired mid-Initialize; the
		// Initialize-stage snapshot must be bypassed even though the data
		// prefix matches. Resuming from the DriverEntry-stage snapshot
		// remains sound — no ISR is registered during DriverEntry, so no
		// trigger can fire there — which is exactly what the exact
		// eligibility bound permits.
		early := zero.Clone()
		early.IRQ = []uint64{1}
		got := e.Run(early)
		if got.SkippedSteps >= deep.SkippedSteps {
			t.Fatalf("early-IRQ feed reused the Initialize snapshot: skip %d >= %d",
				got.SkippedSteps, deep.SkippedSteps)
		}
		want := NewExecutor(img, nil, eagerOptions()).Run(early)
		compareExec(t, "early IRQ", got, want)
	})

	t.Run("bridge seeds replay identically", func(t *testing.T) {
		// FromBug feeds carry exact solver-derived interrupt instants (often
		// mid-boot) and magic data words; each must bypass or rebuild
		// snapshots so the persistent executor reproduces the same fault the
		// cold executor does.
		eng := core.NewEngine(img, core.DefaultOptions())
		srep, err := eng.TestDriver(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(srep.Bugs) == 0 {
			t.Fatal("symbolic pass found no bugs to bridge")
		}
		warm := NewExecutor(img, nil, opts)
		warm.Run(&Feed{Data: make([]byte, 64)}) // prime a snapshot
		cold := NewExecutor(img, nil, eagerOptions())
		for i, b := range srep.Bugs {
			feed := FromBug(b)
			compareExec(t, fmt.Sprintf("bridge feed %d", i), warm.Run(feed), cold.Run(feed))
		}
	})

	t.Run("no stale novelty under a shared coverage map", func(t *testing.T) {
		// Executors can share one coverage map (NewExecutor's cov, as a
		// fuzz campaign's workers do). A snapshot must never replay its recorded
		// admission novelty: once the recording run marked the boot blocks,
		// every later execution — warm from the snapshot, or cold from a
		// fresh executor sharing the map — must report zero novelty for them.
		cov := exerciser.NewCoverage(len(binimg.StaticBlocks(img)))
		e := NewExecutor(img, cov, opts)
		zero := &Feed{Data: make([]byte, 64)}
		first := e.Run(zero)
		if first.NewBlocks == 0 {
			t.Fatal("recording run found no novelty")
		}
		again := e.Run(zero)
		if !again.Warm || again.NewBlocks != 0 {
			t.Fatalf("warm replay reported stale novelty: warm=%v new=%d", again.Warm, again.NewBlocks)
		}
		fresh := NewExecutor(img, cov, eagerOptions()).Run(zero)
		compareExec(t, "shared coverage", again, fresh)
	})
}

// fuzzCampaign runs one deterministic single-worker campaign.
func fuzzCampaign(t *testing.T, img *binimg.Image, persist, dict bool, execs uint64) *Report {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.MaxExecs = execs
	cfg.Persist = persist
	cfg.Dict = dict
	rep, err := New(img, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFuzzE2EPersistBugSetEquality is the end-to-end half of the
// determinism suite: a full single-worker campaign is bit-identical with
// persistent mode on and off — same crash set, same minimized reproducers,
// same corpus, same coverage, same simulated-instruction total — on both
// evaluation drivers, and the fixed variants stay clean under -persist.
func TestFuzzE2EPersistBugSetEquality(t *testing.T) {
	for _, name := range []string{"rtl8029", "amd-pcnet"} {
		t.Run(name, func(t *testing.T) {
			img, err := corpus.Build(name, corpus.Buggy)
			if err != nil {
				t.Fatal(err)
			}
			off := fuzzCampaign(t, img, false, false, 4_000)
			on := fuzzCampaign(t, img, true, false, 4_000)

			offKeys, onKeys := crashKeys(off), crashKeys(on)
			if !reflect.DeepEqual(offKeys, onKeys) {
				t.Fatalf("bug sets differ:\n  cold: %v\n  persist: %v", offKeys, onKeys)
			}
			if len(onKeys) == 0 {
				t.Fatal("campaign found no crashes — equality is vacuous")
			}
			for k, f := range off.CrashFeeds {
				if !f.Equal(on.CrashFeeds[k]) {
					t.Fatalf("minimized reproducer for %s differs", k)
				}
			}
			if off.Instructions != on.Instructions {
				t.Fatalf("simulated instructions %d vs %d", off.Instructions, on.Instructions)
			}
			if off.BlocksCovered != on.BlocksCovered || off.CorpusSize != on.CorpusSize {
				t.Fatalf("coverage/corpus: %d/%d vs %d/%d",
					off.BlocksCovered, off.CorpusSize, on.BlocksCovered, on.CorpusSize)
			}
			if !reflect.DeepEqual(off.CoverageSeries, on.CoverageSeries) {
				t.Fatal("coverage series diverged")
			}
			if on.WarmExecs == 0 {
				t.Fatal("persistent campaign never went warm")
			}
			if on.SkippedInstructions == 0 {
				t.Fatal("persistent campaign skipped no boot instructions")
			}
			t.Logf("%s: %d crashes, %d/%d warm execs, %d of %d instructions skipped",
				name, len(onKeys), on.WarmExecs, on.Execs, on.SkippedInstructions, on.Instructions)

			fixed, err := corpus.Build(name, corpus.Fixed)
			if err != nil {
				t.Fatal(err)
			}
			clean := fuzzCampaign(t, fixed, true, true, 1_500)
			if len(clean.Crashes) != 0 {
				t.Fatalf("fixed variant crashed under -persist -dict:\n%s", clean)
			}
		})
	}
}

func crashKeys(r *Report) []string {
	out := make([]string, 0, len(r.Crashes))
	for _, c := range r.Crashes {
		out = append(out, c.Key())
	}
	return out
}

// TestSnapshotCache covers one fabric shard's cache mechanics in
// isolation: effective (zero-extended) prefix matching, fork-parity
// matching, deepest-match preference, and LRU eviction. (Sharded lookup
// and concurrency are covered in fabric_test.go.)
func TestSnapshotCache(t *testing.T) {
	mk := func(stage snapStage, words int, data []byte, steps uint64) *snapshot {
		return &snapshot{stage: stage, words: words, data: data, steps: steps, eligBound: 100}
	}
	c := &snapShard{}
	shallow := mk(stageBooted, 1, []byte{1, 2, 3, 4}, 50)
	deep := mk(stageInitialized, 2, []byte{1, 2, 3, 4, 0, 0, 0, 0}, 500)
	c.add(shallow)
	c.add(deep)

	// A feed matching both prefixes resumes from the deepest snapshot.
	if got := c.best(&Feed{Data: []byte{1, 2, 3, 4}}, nil); got != deep {
		t.Fatalf("best = %+v, want the deeper snapshot", got)
	}
	// Zero extension: the deep snapshot consumed two words, the second all
	// zero; a feed with a nonzero fifth byte only matches the shallow one.
	if got := c.best(&Feed{Data: []byte{1, 2, 3, 4, 9}}, nil); got != shallow {
		t.Fatalf("zero-extension match failed: %+v", got)
	}
	if c.best(&Feed{Data: []byte{9}}, nil) != nil {
		t.Fatal("mismatching prefix matched")
	}

	// Fork parity: bytes 0x02 and 0x00 encode the same (primary) decision.
	fk := mk(stageBooted, 0, nil, 10)
	fk.forkBits = 2
	fk.forks = []byte{1, 0}
	c.add(fk)
	if c.best(&Feed{Forks: []byte{3, 2}}, nil) != fk {
		t.Fatal("fork parity match failed")
	}
	if c.best(&Feed{Forks: []byte{0, 0}}, nil) == fk {
		t.Fatal("fork decision mismatch matched")
	}

	// IRQ bound: a next trigger below the segment's last injection-eligible
	// instant bypasses; at or past it, the snapshot is usable.
	if c.best(&Feed{Data: []byte{1, 2, 3, 4}, IRQ: []uint64{99}}, nil) != nil {
		t.Fatal("mid-boot IRQ trigger matched a snapshot")
	}
	if c.best(&Feed{Data: []byte{1, 2, 3, 4}, IRQ: []uint64{100}}, nil) != deep {
		t.Fatal("post-boot IRQ trigger should match")
	}

	// Recording an identical prefix at the same stage replaces the entry.
	c.add(mk(stageBooted, 1, []byte{1, 2, 3, 4}, 50))
	n := 0
	for _, sn := range c.snaps {
		if sn.stage == stageBooted && sn.words == 1 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("duplicate prefix kept %d entries", n)
	}

	// Capacity: the least recently used entry is evicted.
	c2 := &snapShard{}
	for i := 0; i < snapCacheMax+8; i++ {
		c2.add(mk(stageTerminal, 1, []byte{byte(i), 0xAA, 0, 0}, 1))
	}
	if len(c2.snaps) != snapCacheMax {
		t.Fatalf("cache size %d, want %d", len(c2.snaps), snapCacheMax)
	}
	if c2.best(&Feed{Data: []byte{0, 0xAA, 0, 0}}, nil) != nil {
		t.Fatal("evicted snapshot still matched")
	}
}
