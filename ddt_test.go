package ddt

import (
	"context"
	"strings"
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	img, err := CorpusDriver("rtl8029", false)
	if err != nil {
		t.Fatal(err)
	}
	// Binary round-trip through the public loader.
	img2, err := LoadDriver(img.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	info := Inspect(img2)
	if info.Name != "rtl8029" || info.NumFunctions == 0 {
		t.Errorf("inspect: %+v", info)
	}

	rep, err := Test(context.Background(), img2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bugs) != 5 {
		t.Errorf("bugs = %d, want 5", len(rep.Bugs))
	}
}

func TestFacadeSessionTraceReplay(t *testing.T) {
	img, err := CorpusDriver("intel-ac97", false)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(img, DefaultConfig())
	rep, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bugs) != 1 {
		t.Fatalf("bugs = %d", len(rep.Bugs))
	}
	tr := sess.TraceBug(rep.Bugs[0])
	if !strings.Contains(tr.Summary(), "race condition") {
		t.Errorf("summary:\n%s", tr.Summary())
	}
	res, err := Replay(tr, img)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced {
		t.Errorf("replay failed: %v", res)
	}
}

// TestFacadeTraceReplayLinearScenario: a trace records the scenario of the
// run that found its bug, so a storage driver's linear-scenario bugs replay
// on the linear plan rather than the class-default PnP graph, whose first
// edge at ISR (CancelIo) the recorded path never took.
func TestFacadeTraceReplayLinearScenario(t *testing.T) {
	img, err := CorpusDriver("promise-ultra133", false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scenario = "linear"
	sess := NewSession(img, cfg)
	rep, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bugs) == 0 {
		t.Fatal("linear scenario found no bugs")
	}
	for _, b := range rep.Bugs {
		tr := sess.TraceBug(b)
		if tr.Scenario != "linear" {
			t.Errorf("trace scenario = %q, want linear", tr.Scenario)
		}
		res, err := Replay(tr, img)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reproduced || len(res.Divergences) > 0 {
			t.Errorf("%s: replay %v, divergences %v", b.Key(), res, res.Divergences)
		}
	}
}

func TestFacadeCorpusHelpers(t *testing.T) {
	names := CorpusNames()
	if len(names) < 8 {
		t.Errorf("corpus names = %v", names)
	}
	bugs, err := ExpectedBugs("rtl8029")
	if err != nil || len(bugs) != 5 {
		t.Errorf("expected bugs = %v, %v", bugs, err)
	}
	if _, err := ExpectedBugs("bogus"); err == nil {
		t.Error("bogus driver accepted")
	}
	if _, err := CorpusDriver("bogus", false); err == nil {
		t.Error("bogus corpus driver accepted")
	}
}

func TestFacadeConfigBounds(t *testing.T) {
	img, err := CorpusDriver("rtl8029", false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxPathsPerEntry = 4
	cfg.MaxStates = 16
	rep, err := Test(context.Background(), img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tight bounds cost coverage, never soundness: whatever is reported is
	// still real (subset of the 5).
	if len(rep.Bugs) > 5 {
		t.Errorf("bugs = %d", len(rep.Bugs))
	}
}

func TestFacadeFixedVariantIsClean(t *testing.T) {
	img, err := CorpusDriver("intel-pro100", true)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Test(context.Background(), img, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bugs) != 0 {
		t.Errorf("fixed variant: %d bugs", len(rep.Bugs))
	}
}
