package fuzz

import (
	"context"
	"testing"
	"time"

	"repro/internal/corpus"
)

// TestFuzzerCancelQuiescence locks in the post-cancel contract. An
// execution that finishes after its context was canceled admits nothing:
// the per-execution step run under a canceled context, on a novel feed
// and on a crashing feed, leaves the corpus and the crash set as they
// were (under a live context the same steps admit both). And once Run
// returns after a cancellation, every worker has quiesced and no late
// executor admits another corpus entry, crash, or coverage block — the
// report and the stores it was assembled from are frozen. Run under -race
// this also catches any straggler goroutine racing the caller's reads of
// the fuzzer state.
func TestFuzzerCancelQuiescence(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}

	// A crashing feed: the minimized reproducer of a short campaign's
	// first crash.
	first := DefaultConfig()
	first.Workers = 1
	first.StopAtFirstBug = true
	frep, err := New(img, first).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(frep.Crashes) == 0 || !frep.Crashes[0].Reproduced {
		t.Fatalf("no reproduced crash to replay: %d crashes", len(frep.Crashes))
	}
	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	for _, tc := range []struct {
		name  string
		feed  *Feed
		crash bool
	}{
		{"all-zero seed", &Feed{Data: make([]byte, 64)}, false},
		{"crash reproducer", frep.Crashes[0].Feed, true},
	} {
		step := func(ctx context.Context) *Fuzzer {
			f := New(img, DefaultConfig())
			exec, mu := f.newWorker(0)
			f.queue.Push(tc.feed)
			f.execOne(ctx, exec, mu)
			if execs, _ := f.Stats(); execs != 1 || f.Cov.Blocks() == 0 {
				t.Fatalf("%s: the step ran %d executions covering %d blocks, want 1 and some",
					tc.name, execs, f.Cov.Blocks())
			}
			return f
		}
		if f := step(canceled); f.Corpus().Len() != 0 || len(f.Crashes()) != 0 {
			t.Errorf("%s run under a canceled context admitted %d corpus entries and %d crashes, want none",
				tc.name, f.Corpus().Len(), len(f.Crashes()))
		}
		live := step(context.Background())
		if live.Corpus().Len() == 0 || (len(live.Crashes()) != 0) != tc.crash {
			t.Fatalf("%s under a live context: %d corpus entries, %d crashes; the feed is not novel or its crash did not fire",
				tc.name, live.Corpus().Len(), len(live.Crashes()))
		}
	}

	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.MaxExecs = 0 // unbounded: cancellation is the only stop condition
	cfg.Duration = 0
	f := New(img, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := f.Run(ctx)
		done <- result{rep, err}
	}()

	// Let the campaign make real progress before pulling the plug.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if execs, _ := f.Stats(); execs >= 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fuzzer made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	var res result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.rep.Execs == 0 {
		t.Fatal("canceled campaign reported zero execs despite observed progress")
	}

	// Quiescence: every observable store is frozen the moment Run returns.
	execs0, instr0 := f.Stats()
	corpus0 := f.Corpus().Len()
	crashes0 := len(f.Crashes())
	blocks0 := len(f.Cov.CoveredBlocks())
	time.Sleep(100 * time.Millisecond)
	execs1, instr1 := f.Stats()
	if execs1 != execs0 || instr1 != instr0 {
		t.Fatalf("stats moved after Run returned: execs %d->%d instrs %d->%d",
			execs0, execs1, instr0, instr1)
	}
	if n := f.Corpus().Len(); n != corpus0 {
		t.Fatalf("corpus grew after Run returned: %d -> %d", corpus0, n)
	}
	if n := len(f.Crashes()); n != crashes0 {
		t.Fatalf("crash set grew after Run returned: %d -> %d", crashes0, n)
	}
	if n := len(f.Cov.CoveredBlocks()); n != blocks0 {
		t.Fatalf("coverage grew after Run returned: %d -> %d", blocks0, n)
	}
}
