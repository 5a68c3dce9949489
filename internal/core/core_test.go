package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/vm"
)

func runDDT(t *testing.T, driver string, v corpus.Variant, opts Options) *Report {
	t.Helper()
	img, err := corpus.Build(driver, v)
	if err != nil {
		t.Fatalf("build %s: %v", driver, err)
	}
	e := NewEngine(img, opts)
	rep, err := e.TestDriver(context.Background())
	if err != nil {
		t.Fatalf("test %s: %v", driver, err)
	}
	return rep
}

func classSet(rep *Report) map[string]int {
	return rep.CountByClass()
}

func TestRTL8029FindsAllFiveBugs(t *testing.T) {
	rep := runDDT(t, "rtl8029", corpus.Buggy, DefaultOptions())
	got := classSet(rep)
	t.Logf("rtl8029 buggy report:\n%s", rep)
	for _, b := range rep.Bugs {
		t.Logf("  %s", b.Describe())
	}
	want := map[string]int{
		"resource leak":      1,
		"memory corruption":  1,
		"race condition":     1,
		"segmentation fault": 2,
	}
	for class, n := range want {
		if got[class] < n {
			t.Errorf("class %q: found %d, want >= %d", class, got[class], n)
		}
	}
	if len(rep.Bugs) != 5 {
		t.Errorf("total bugs = %d, want exactly 5 (Table 2)", len(rep.Bugs))
	}
}

func TestRTL8029FixedIsClean(t *testing.T) {
	rep := runDDT(t, "rtl8029", corpus.Fixed, DefaultOptions())
	if len(rep.Bugs) != 0 {
		for _, b := range rep.Bugs {
			t.Errorf("false positive: %s", b.Describe())
		}
	}
}

func TestRTL8029CoverageReasonable(t *testing.T) {
	rep := runDDT(t, "rtl8029", corpus.Buggy, DefaultOptions())
	if rep.RelativeCoverage() < 0.3 {
		t.Errorf("coverage = %.0f%%, want >= 30%%", 100*rep.RelativeCoverage())
	}
	if len(rep.CoverageSeries) == 0 {
		t.Error("no coverage series recorded")
	}
}

// TestTestDriverHonoursContext: the walk checks its context before every
// pop. A context canceled before the session explores nothing; one
// canceled mid-session, from OnBlock or by a 1ns deadline, ends the
// session short of rtl8029's full walk (seedGolden).
func TestTestDriverHonoursContext(t *testing.T) {
	full := seedGolden["rtl8029"].paths
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	run := func(e *Engine, ctx context.Context) *Report {
		t.Helper()
		rep, err := e.TestDriver(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	t.Run("precanceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rep := run(NewEngine(img, DefaultOptions()), ctx)
		if rep.PathsExplored != 0 || len(rep.Bugs) != 0 {
			t.Errorf("canceled session explored %d paths, found %d bugs; want 0 and 0",
				rep.PathsExplored, len(rep.Bugs))
		}
	})

	t.Run("OnBlock", func(t *testing.T) {
		const blocks = 500
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		e := NewEngine(img, DefaultOptions())
		onBlock, n := e.M.OnBlock, 0
		e.M.OnBlock = func(s *vm.State, pc uint32) {
			onBlock(s, pc)
			if n++; n == blocks {
				cancel()
			}
		}
		rep := run(e, ctx)
		if n < blocks {
			t.Fatalf("session entered %d blocks, cancel was due at %d", n, blocks)
		}
		if rep.PathsExplored >= full {
			t.Errorf("session canceled after %d blocks explored %d paths, full walk %d",
				blocks, rep.PathsExplored, full)
		}
	})

	t.Run("Duration", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
		defer cancel()
		rep := run(NewEngine(img, DefaultOptions()), ctx)
		if rep.PathsExplored >= full {
			t.Errorf("1ns session explored %d paths, full walk %d", rep.PathsExplored, full)
		}
	})
}
