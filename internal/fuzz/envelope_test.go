package fuzz

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/corpus"
)

// The campaign envelope (Workers, MaxExecs, Duration, StopAtFirstBug) is
// checked by each worker before every execution in Fuzzer.Run. These tests
// run whole campaigns on intel-ac97, a fast driver with one planted bug
// (one crash key), so each property is observed end to end.

func envelopeCampaign(t *testing.T, mod func(*Config)) *Report {
	t.Helper()
	img, err := corpus.Build("intel-ac97", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Persist = true
	mod(&cfg)
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := New(img, cfg).Run(context.Background())
		done <- result{rep, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		return res.rep
	case <-time.After(60 * time.Second):
		t.Fatal("Run did not return")
	}
	return nil
}

// TestCampaignMaxExecs: at 4 workers the campaign runs exactly MaxExecs
// executions, no more and no fewer.
func TestCampaignMaxExecs(t *testing.T) {
	const budget = 300
	rep := envelopeCampaign(t, func(c *Config) {
		c.Workers = 4
		c.MaxExecs = budget
	})
	if rep.Workers != 4 || rep.Execs != budget {
		t.Fatalf("workers=%d execs=%d, want 4 and exactly %d", rep.Workers, rep.Execs, budget)
	}
}

// TestCampaignStopAtFirstBug: at 2 workers StopAtFirstBug ends the
// campaign with the driver's one crash, long before MaxExecs.
func TestCampaignStopAtFirstBug(t *testing.T) {
	const budget = 20_000
	rep := envelopeCampaign(t, func(c *Config) {
		c.Workers = 2
		c.MaxExecs = budget
		c.StopAtFirstBug = true
	})
	if len(rep.Crashes) != 1 {
		t.Fatalf("crashes = %d, want 1", len(rep.Crashes))
	}
	if rep.Execs >= budget {
		t.Fatalf("execs = %d: the first crash did not stop the campaign before MaxExecs %d", rep.Execs, budget)
	}
}

// TestCampaignDuration: with no execution budget, Duration alone ends the
// campaign, and not before it elapses.
func TestCampaignDuration(t *testing.T) {
	const d = 50 * time.Millisecond
	start := time.Now()
	rep := envelopeCampaign(t, func(c *Config) {
		c.Workers = 2
		c.MaxExecs = 0
		c.Duration = d
	})
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("campaign returned after %v, want >= %v", elapsed, d)
	}
	if rep.Execs == 0 {
		t.Fatal("no executions within the duration bound")
	}
}

// TestCampaignWorkersClampedToOne: Workers 0 runs the one-worker
// campaign, execution for execution.
func TestCampaignWorkersClampedToOne(t *testing.T) {
	run := func(workers int) *Report {
		return envelopeCampaign(t, func(c *Config) {
			c.Workers = workers
			c.MaxExecs = 500
		})
	}
	zero, one := run(0), run(1)
	if zero.Workers != 1 {
		t.Fatalf("Workers 0 ran %d workers, want 1", zero.Workers)
	}
	if zero.Execs != one.Execs || zero.Instructions != one.Instructions ||
		zero.CorpusSize != one.CorpusSize ||
		!reflect.DeepEqual(zero.CoverageSeries, one.CoverageSeries) ||
		!reflect.DeepEqual(crashKeys(zero), crashKeys(one)) {
		t.Errorf("Workers 0 and 1 differ: execs %d/%d instrs %d/%d corpus %d/%d crashes %v/%v",
			zero.Execs, one.Execs, zero.Instructions, one.Instructions,
			zero.CorpusSize, one.CorpusSize, crashKeys(zero), crashKeys(one))
	}
}
