package fuzz

import (
	"context"
	"testing"
	"time"

	"repro/internal/corpus"
)

// TestFuzzerCancelQuiescence locks in the post-cancel contract: once Run
// returns after a context cancellation, every worker has quiesced and no
// late executor admits another corpus entry, crash, or coverage block —
// the report and the stores it was assembled from are frozen. Run under
// -race this also catches any straggler goroutine racing the caller's
// reads of the fuzzer state.
func TestFuzzerCancelQuiescence(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
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
