package campaign_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fuzz"
)

// TestFindingsDedup: FindingKey is the one deduplication identity of both
// modes. The same class at the same site is one finding whichever mode
// reports it and whatever wild target the fault had; another class or
// another site is another finding.
func TestFindingsDedup(t *testing.T) {
	sym := &core.Bug{Class: "segmentation fault", Site: 0x100100}
	fz := &fuzz.Crash{Class: "segmentation fault", Site: 0x100100, PC: 0xdeadbeef}
	if sym.Key() != fz.Key() || sym.Key() != campaign.FindingKey("segmentation fault", 0x100100) {
		t.Fatalf("one bug keyed differently by the modes: %q vs %q", sym.Key(), fz.Key())
	}
	seen := make(map[string]bool)
	admit := func(key string) bool {
		if seen[key] {
			return false
		}
		seen[key] = true
		return true
	}
	if !admit(sym.Key()) || admit(fz.Key()) {
		t.Fatal("same class+site must dedup across modes")
	}
	if !admit((&fuzz.Crash{Class: "memory corruption", Site: 0x100100}).Key()) ||
		!admit((&core.Bug{Class: "segmentation fault", Site: 0x100200}).Key()) {
		t.Fatal("distinct class or site must not dedup")
	}
	if len(seen) != 3 {
		t.Fatalf("count=%d, want 3", len(seen))
	}
}

// TestRunnerContextCancel: a fuzz campaign's worker pool stops on its
// context. Under a context canceled before Run, no execution starts. When
// the context is canceled mid-campaign, Run returns, only the executions
// already admitted before the cancel (at most one per worker) finish after
// it, and nothing runs once Run has returned.
func TestRunnerContextCancel(t *testing.T) {
	const workers = 4
	img, err := corpus.Build("intel-ac97", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fuzz.DefaultConfig()
	cfg.Options = campaign.Options{Workers: workers, Seed: 1}

	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	rep, err := fuzz.New(img, cfg).Run(canceled)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Execs != 0 {
		t.Fatalf("a campaign run under a canceled context ran %d executions, want 0", rep.Execs)
	}

	f := fuzz.New(img, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *fuzz.Report, 1)
	go func() {
		rep, err := f.Run(ctx)
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if execs, _ := f.Stats(); execs >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	atCancel, _ := f.Stats()
	select {
	case rep = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
	if rep == nil {
		t.FailNow()
	}
	if rep.Execs < atCancel || rep.Execs > atCancel+workers {
		t.Fatalf("execs = %d, want %d to %d: an execution started after the cancel",
			rep.Execs, atCancel, atCancel+workers)
	}
	time.Sleep(10 * time.Millisecond)
	if execs, _ := f.Stats(); execs != rep.Execs {
		t.Fatalf("an execution ran after Run returned: %d -> %d", rep.Execs, execs)
	}
}
