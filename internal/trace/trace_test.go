package trace

import (
	"context"
	"strings"
	"testing"

	"repro/internal/asm"
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

// TestUnmarshalRejectsVersion1: a version 1 trace records only the taken
// annotation alternatives and no edge choices, so its fork stream cannot be
// rebuilt; it must be rejected, not replayed as if every decision it lacks
// kept the primary outcome.
func TestUnmarshalRejectsVersion1(t *testing.T) {
	e, bugs := findBugs(t, "rtl8029")
	f := New(bugs[0], "rtl8029", true, e.EffectiveRegistry())
	f.Version = 1
	blob, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(blob); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version 1 trace: got error %v, want an unsupported-version error", err)
	}
}

// TestTreeLabelsDecisions: the rendered execution tree names both sides of
// an annotation fork and the scenario-edge choices of the storage graph.
func TestTreeLabelsDecisions(t *testing.T) {
	e, bugs := findBugs(t, "promise-ultra133")
	var files []*File
	for _, b := range bugs {
		files = append(files, New(b, "promise-ultra133", true, e.EffectiveRegistry()))
	}
	r := BuildTree(files).Render()
	for _, want := range []string{"primary outcome", "route -> "} {
		if !strings.Contains(r, want) {
			t.Errorf("tree lacks %q:\n%s", want, r)
		}
	}
}

// TestReplayUsesRecordingBounds: a path the engine walked within its own
// bounds replays within them too. DriverEntry spins 1500 times through a
// 22-instruction block before its null dereference: past the fuzz
// executor's default loop threshold (1000) and per-entry step bound
// (30,000), inside the engine's (2000 and 60,000).
func TestReplayUsesRecordingBounds(t *testing.T) {
	src := ".entry DriverEntry\n.text\nDriverEntry:\n    movi r1, 0\n    movi r2, 1500\nspin:\n" +
		strings.Repeat("    addi r5, r5, 1\n", 20) +
		"    addi r1, r1, 1\n    bltu r1, r2, spin\n    movi r3, 0\n    ldw  r4, [r3+0]\n    ret\n"
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	img.Name = "spin1500"
	e := core.NewEngine(img, core.DefaultOptions())
	if _, err := e.TestDriver(context.Background()); err != nil {
		t.Fatal(err)
	}
	bugs := e.Bugs()
	if len(bugs) != 1 || bugs[0].Class != "segmentation fault" {
		t.Fatalf("engine bugs = %v, want one segmentation fault", bugs)
	}
	res, err := Replay(New(bugs[0], img.Name, true, e.EffectiveRegistry()), img)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced || len(res.Divergences) > 0 || res.Steps < 30_000 {
		t.Errorf("replay %v after %d steps, divergences %v", res, res.Steps, res.Divergences)
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
