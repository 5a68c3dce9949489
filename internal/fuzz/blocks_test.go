package fuzz

import (
	"testing"

	"repro/internal/binimg"
	"repro/internal/corpus"
	"repro/internal/exerciser"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestForkingExecEndsKilled: a concrete execution that forks — here an
// annotation mints a real symbol because the feed's SymbolPolicy is
// cleared, and the driver branches on it — ends killed, without a crash
// and without panicking, instead of following one child (whose block
// counts would restart empty).
func TestForkingExecEndsKilled(t *testing.T) {
	feed := &Feed{Data: make([]byte, 64)}
	forked := 0
	for _, name := range corpus.Names() {
		img, err := corpus.Build(name, corpus.Buggy)
		if err != nil {
			t.Fatal(err)
		}
		e := NewExecutor(img, exerciser.NewCoverage(0), DefaultOptions())
		e.k.SymbolPolicy = nil
		if res := e.Run(feed); res.Crash != nil {
			t.Fatalf("%s: forking exec crashed: %v", name, res.Crash)
		}

		e.reader.reset(feed)
		forks := e.m.Forks
		res := &ExecResult{}
		fin := e.walk(workload.Boot(e.m, e.img, workload.Registry(e.opts.Registry)), 0, res)
		if e.m.Forks == forks {
			continue
		}
		forked++
		if fin.Status != vm.StatusKilled || res.Crash != nil {
			t.Fatalf("%s: forking exec ended %v (crash %v), want killed", name, fin.Status, res.Crash)
		}
	}
	if forked == 0 {
		t.Fatal("no corpus driver forked on a symbolic annotation value")
	}
	t.Logf("%d of %d drivers forked", forked, len(corpus.Names()))
}

// TestExecBlocksMatchTrace pins the per-execution block set (the state's
// block table) to an independent definition: for every corpus driver, in a
// one-worker persistent campaign, each execution's Blocks equals the number
// of distinct EvBlock PCs in its traced re-execution, and so does a cold
// execution of the same feed; the executions' NewBlocks add up to the
// coverage map's size.
func TestExecBlocksMatchTrace(t *testing.T) {
	for _, name := range corpus.Names() {
		t.Run(name, func(t *testing.T) {
			img, err := corpus.Build(name, corpus.Buggy)
			if err != nil {
				t.Fatal(err)
			}
			cov := exerciser.NewCoverage(len(binimg.StaticBlocks(img)))
			opts := DefaultOptions()
			opts.Persist = true
			e := NewExecutor(img, cov, opts)
			// The campaign's first execution boots cold and records the
			// snapshots nearly every later feed resumes from; cold checks
			// every feed without them.
			cold := NewExecutor(img, nil, DefaultOptions())

			mu := NewMutator(3)
			c := NewCorpus(0)
			queue := []*Feed{{Data: make([]byte, 64)}}
			newBlocks, warm := 0, 0
			for i := 0; i < 300; i++ {
				var feed *Feed
				// Every fourth feed is generated afresh: a new boot prefix,
				// so the campaign also runs cold and records snapshots.
				switch {
				case len(queue) > 0:
					feed, queue = queue[0], queue[1:]
				case c.Len() > 0 && i%4 != 0:
					feed = mu.Mutate(c.Choose(mu.rng), c.RandomDonor(mu.rng))
				default:
					feed = mu.Generate()
				}
				res := e.Run(feed)
				if res.Warm {
					warm++
				}
				newBlocks += res.NewBlocks
				tr := cold.RunTraced(feed)
				pcs := map[uint32]bool{}
				for _, ev := range tr.Trace.Path() {
					if ev.Kind == vm.EvBlock {
						pcs[ev.PC] = true
					}
				}
				if res.Blocks != len(pcs) {
					t.Fatalf("exec %d (warm %v): Blocks %d, trace enters %d distinct blocks",
						i, res.Warm, res.Blocks, len(pcs))
				}
				if n := cold.Run(feed).Blocks; n != len(pcs) {
					t.Fatalf("exec %d cold: Blocks %d, trace enters %d distinct blocks", i, n, len(pcs))
				}
				if res.NewBlocks > 0 && res.Crash == nil && c.Add(trimFeed(feed, res), res.NewBlocks) {
					queue = append(queue, mu.Mutate(feed, nil))
				}
			}
			if newBlocks != cov.Blocks() {
				t.Fatalf("NewBlocks sum to %d, coverage map holds %d", newBlocks, cov.Blocks())
			}
			if warm == 0 {
				t.Fatal("no execution resumed from a snapshot")
			}
			t.Logf("%s: %d of 300 executions warm, %d blocks", name, warm, newBlocks)
		})
	}
}
