package trace

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
)

// findBugs runs DDT on a corpus driver and returns the engine + report.
func findBugs(t *testing.T, driver string) (*core.Engine, []*core.Bug) {
	t.Helper()
	img, err := corpus.Build(driver, corpus.Buggy)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	e := core.NewEngine(img, core.DefaultOptions())
	if _, err := e.TestDriver(context.Background()); err != nil {
		t.Fatalf("test: %v", err)
	}
	if len(e.Bugs()) == 0 {
		t.Fatalf("no bugs found in %s", driver)
	}
	return e, e.Bugs()
}

func TestTraceRoundTrip(t *testing.T) {
	e, bugs := findBugs(t, "rtl8029")
	f := New(bugs[0], "rtl8029", true, e.EffectiveRegistry())
	blob, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports traces rarely exceed 1 MB per bug.
	if len(blob) > 1<<20 {
		t.Errorf("trace size = %d bytes, want <= 1MB", len(blob))
	}
	f2, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Driver != f.Driver || f2.Bug != f.Bug || len(f2.Events) != len(f.Events) ||
		len(f2.Symbols) != len(f.Symbols) {
		t.Errorf("round trip mismatch")
	}
}

func TestTraceSaveLoad(t *testing.T) {
	e, bugs := findBugs(t, "rtl8029")
	f := New(bugs[0], "rtl8029", true, e.EffectiveRegistry())
	path := t.TempDir() + "/bug.ddtrace"
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	f2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Bug.Class != f.Bug.Class {
		t.Errorf("loaded class = %q", f2.Bug.Class)
	}
}

func TestTraceSummary(t *testing.T) {
	e, bugs := findBugs(t, "rtl8029")
	for _, b := range bugs {
		f := New(b, "rtl8029", true, e.EffectiveRegistry())
		s := f.Summary()
		if !strings.Contains(s, b.Class) {
			t.Errorf("summary missing class %q:\n%s", b.Class, s)
		}
		if !strings.Contains(s, "DriverEntry") {
			t.Errorf("summary missing entry chain:\n%s", s)
		}
	}
}

// TestReplayReproducesEveryTable2Bug is the §3.5 guarantee: every reported
// bug comes with a trace that re-executes deterministically to the same
// failure — the zero-false-positive evidence.
func TestReplayReproducesEveryTable2Bug(t *testing.T) {
	for _, driver := range []string{"rtl8029", "amd-pcnet", "intel-pro1000", "intel-pro100", "ensoniq-audiopci", "intel-ac97", "promise-ultra133"} {
		e, bugs := findBugs(t, driver)
		img, _ := corpus.Build(driver, corpus.Buggy)
		for _, b := range bugs {
			f := New(b, driver, true, e.EffectiveRegistry())
			res, err := Replay(f, img)
			if err != nil {
				t.Fatalf("%s/%s: replay error: %v", driver, b.Class, err)
			}
			if !res.Reproduced {
				t.Errorf("%s: bug [%s] at %#x NOT reproduced: %s (divergences: %v)",
					driver, b.Class, b.Fault.PC, res, res.Divergences)
			}
		}
	}
}

func TestReplayRejectsWrongImage(t *testing.T) {
	e, bugs := findBugs(t, "rtl8029")
	f := New(bugs[0], "rtl8029", true, e.EffectiveRegistry())
	other, _ := corpus.Build("amd-pcnet", corpus.Buggy)
	if _, err := Replay(f, other); err == nil {
		t.Error("replay against the wrong driver image should fail")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not a trace")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestReplayAnnotationFree: the §3.5 guarantee holds in DDT's default,
// annotation-free mode too, where entry arguments are the plan's concrete
// representatives (each Query/SetInformation OID, fixed buffer patterns)
// rather than injection points.
func TestReplayAnnotationFree(t *testing.T) {
	for _, driver := range corpus.Names() {
		img, err := corpus.Build(driver, corpus.Buggy)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Annotations = false
		e := core.NewEngine(img, opts)
		if _, err := e.TestDriver(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, b := range e.Bugs() {
			res, err := Replay(New(b, driver, false, e.EffectiveRegistry()), img)
			if err != nil {
				t.Fatalf("%s/%s: replay error: %v", driver, b.Class, err)
			}
			if !res.Reproduced {
				t.Errorf("%s: bug [%s] at %#x NOT reproduced: %s (divergences: %v)",
					driver, b.Class, b.Fault.PC, res, res.Divergences)
			}
		}
	}
}
