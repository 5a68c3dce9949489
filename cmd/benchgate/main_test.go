package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// benchOut fabricates `go test -bench -count=len(samples)` output for one
// benchmark, mixing in the extra per-session metrics our real benchmarks
// report. Each per-session metric is ns/op scaled down, so unit-based
// assertions can distinguish the columns.
func benchOut(name string, samples ...float64) string {
	var sb strings.Builder
	sb.WriteString("goos: linux\ngoarch: amd64\npkg: repro\n")
	for _, ns := range samples {
		fmt.Fprintf(&sb,
			"%s-8 \t       3\t%8.0f ns/op\t      %.1f ms/seq-session\t      %.1f ms/4worker-session\t         1.068 speedup@4workers\n",
			name, ns, ns/10, ns/20)
	}
	sb.WriteString("--- BENCH: " + name + "\n    bench_test.go:1: GOMAXPROCS=4: log line\nPASS\nok  \trepro\t12.3s\n")
	return sb.String()
}

func targets(specs ...string) []target {
	out := make([]target, len(specs))
	for i, s := range specs {
		out[i] = parseTarget(s)
	}
	return out
}

func TestParseBenchStripsSuffixAndCollectsCounts(t *testing.T) {
	out := benchOut("BenchmarkFuzzExecsPerSec", 100, 110, 90)
	got, _ := parseBench(out)
	s := got["BenchmarkFuzzExecsPerSec"]["ns/op"]
	if len(s) != 3 {
		t.Fatalf("parsed %v, want 3 ns/op samples under the unsuffixed name", got)
	}
	if s[0] != 100 || s[1] != 110 || s[2] != 90 {
		t.Fatalf("samples = %v", s)
	}
}

func TestParseBenchCollectsReportMetricUnits(t *testing.T) {
	out := benchOut("BenchmarkExploreParallelSpeedup", 2000)
	parsed, _ := parseBench(out)
	got := parsed["BenchmarkExploreParallelSpeedup"]
	if len(got["ms/seq-session"]) != 1 || got["ms/seq-session"][0] != 200 {
		t.Fatalf("ms/seq-session samples = %v", got["ms/seq-session"])
	}
	if len(got["ms/4worker-session"]) != 1 || got["ms/4worker-session"][0] != 100 {
		t.Fatalf("ms/4worker-session samples = %v", got["ms/4worker-session"])
	}
}

func TestParseTargetDefaultsToNsOp(t *testing.T) {
	if tg := parseTarget("BenchmarkFuzzExecsPerSec"); tg.Unit != "ns/op" {
		t.Fatalf("default unit = %q", tg.Unit)
	}
	tg := parseTarget("BenchmarkExploreParallelSpeedup:ms/4worker-session")
	if tg.Name != "BenchmarkExploreParallelSpeedup" || tg.Unit != "ms/4worker-session" {
		t.Fatalf("parsed target = %+v", tg)
	}
}

func TestMedianIsRobustToOneOutlier(t *testing.T) {
	if m := median([]float64{100, 5000, 102, 98, 101, 99}); m > 110 {
		t.Fatalf("median %v swung on a single outlier", m)
	}
	if m := median([]float64{1, 3}); m != 2 {
		t.Fatalf("even-count median = %v, want 2", m)
	}
}

// TestGatePassesWithinNoise: a few-percent wobble must not fail the gate.
func TestGatePassesWithinNoise(t *testing.T) {
	base := benchOut("BenchmarkExploreParallelSpeedup", 1000, 1010, 990, 1005, 995, 1000)
	head := benchOut("BenchmarkExploreParallelSpeedup", 1050, 1040, 1060, 1055, 1045, 1050) // +5%
	s := gate(base, head, targets("BenchmarkExploreParallelSpeedup"), 0.20)
	if !s.Pass {
		t.Fatalf("gate failed on a 5%% wobble: %+v", s.Results)
	}
}

// TestGateFailsOnInjectedSlowdown is the acceptance check for the CI bench
// gate: inject a slowdown past the 20% threshold into the head output and
// the gate must fail.
func TestGateFailsOnInjectedSlowdown(t *testing.T) {
	base := benchOut("BenchmarkExploreParallelSpeedup", 1000, 1010, 990, 1005, 995, 1000)
	head := benchOut("BenchmarkExploreParallelSpeedup", 1250, 1240, 1260, 1245, 1255, 1250) // +25%
	s := gate(base, head, targets("BenchmarkExploreParallelSpeedup:ms/seq-session"), 0.20)
	if s.Pass {
		t.Fatal("gate passed a 25% wall-clock regression")
	}
	r := s.Results[0]
	if !r.Regression || r.Delta < 0.20 {
		t.Fatalf("result %+v, want regression with delta ~0.25", r)
	}
}

// TestGatePerSessionMetricSurvivesShapeChange: the reason the CI gate
// tracks per-session metrics rather than raw ns/op — when a PR adds more
// sessions to one benchmark iteration, total-iteration ns/op inflates by
// construction while the per-session wall clock stays comparable. The
// per-session gate must pass; a raw ns/op gate over the same outputs
// would (wrongly) fail.
func TestGatePerSessionMetricSurvivesShapeChange(t *testing.T) {
	base := "BenchmarkExploreParallelSpeedup-8 \t 3\t 3000 ns/op\t 100.0 ms/seq-session\n"
	head := "BenchmarkExploreParallelSpeedup-8 \t 3\t 5000 ns/op\t 101.0 ms/seq-session\n" // 2 extra sessions/iter
	s := gate(base, head, targets("BenchmarkExploreParallelSpeedup:ms/seq-session"), 0.20)
	if !s.Pass {
		t.Fatalf("per-session gate failed on a shape change: %+v", s.Results)
	}
	if raw := gate(base, head, targets("BenchmarkExploreParallelSpeedup"), 0.20); raw.Pass {
		t.Fatal("raw ns/op gate unexpectedly survived the shape change (test premise broken)")
	}
}

// benchMemOut fabricates `go test -bench -benchmem` output: the standard
// ns/op column followed by the B/op and allocs/op columns -benchmem adds.
func benchMemOut(name string, ns, allocs float64, runs int) string {
	var sb strings.Builder
	sb.WriteString("goos: linux\ngoarch: amd64\npkg: repro\n")
	for i := 0; i < runs; i++ {
		fmt.Fprintf(&sb, "%s-8 \t       3\t%8.0f ns/op\t    %.0f B/op\t      %.0f allocs/op\n",
			name, ns, allocs*48, allocs)
	}
	sb.WriteString("PASS\nok  \trepro\t12.3s\n")
	return sb.String()
}

// TestGateFailsOnInjectedAllocRegression: with -benchmem columns present,
// an allocs/op target gates allocation counts — inject a +30% alloc
// regression with unchanged wall clock and the alloc gate must fail while
// the ns/op gate over the same outputs still passes.
func TestGateFailsOnInjectedAllocRegression(t *testing.T) {
	base := benchMemOut("BenchmarkFuzzExecsPerSec", 1000, 100, 6)
	head := benchMemOut("BenchmarkFuzzExecsPerSec", 1000, 130, 6)
	s := gate(base, head, targets("BenchmarkFuzzExecsPerSec:allocs/op"), 0.20)
	if s.Pass {
		t.Fatal("gate passed a 30% allocs/op regression")
	}
	r := s.Results[0]
	if !r.Regression || r.Unit != "allocs/op" || r.Base != 100 || r.Head != 130 {
		t.Fatalf("result %+v, want allocs/op regression 100 -> 130", r)
	}
	if ns := gate(base, head, targets("BenchmarkFuzzExecsPerSec"), 0.20); !ns.Pass {
		t.Fatalf("ns/op gate failed with unchanged wall clock: %+v", ns.Results)
	}
}

// TestGateThresholdIsExclusive: exactly-at-threshold is not a regression
// (the gate fires on > 20%, not >= 20%).
func TestGateThresholdIsExclusive(t *testing.T) {
	base := benchOut("BenchmarkFuzzExecsPerSec", 1000)
	head := benchOut("BenchmarkFuzzExecsPerSec", 1200) // exactly +20%
	s := gate(base, head, targets("BenchmarkFuzzExecsPerSec"), 0.20)
	if !s.Pass {
		t.Fatalf("gate failed at exactly the threshold: %+v", s.Results[0])
	}
}

// TestGateFailsOnMissingBenchmark: a tracked metric that vanished from the
// head output (renamed, deleted, compile-gated away) must fail — a missing
// measurement is not a passing one.
func TestGateFailsOnMissingBenchmark(t *testing.T) {
	base := benchOut("BenchmarkExploreParallelSpeedup", 1000)
	head := benchOut("BenchmarkSomethingElse", 1000)
	s := gate(base, head, targets("BenchmarkExploreParallelSpeedup"), 0.20)
	if s.Pass {
		t.Fatal("gate passed with the tracked benchmark missing from head")
	}
	if !s.Results[0].Missing {
		t.Fatalf("result %+v, want Missing", s.Results[0])
	}
}

// TestGateTracksMultipleBenchmarks: one regressing metric fails the whole
// gate even when the others improve.
func TestGateTracksMultipleBenchmarks(t *testing.T) {
	base := benchOut("BenchmarkExploreParallelSpeedup", 1000) +
		benchOut("BenchmarkFuzzExecsPerSec", 2000)
	head := benchOut("BenchmarkExploreParallelSpeedup", 900) + // faster
		benchOut("BenchmarkFuzzExecsPerSec", 2600) // +30%
	s := gate(base, head,
		targets("BenchmarkExploreParallelSpeedup:ms/4worker-session", "BenchmarkFuzzExecsPerSec"), 0.20)
	if s.Pass {
		t.Fatal("gate passed despite BenchmarkFuzzExecsPerSec regressing 30%")
	}
	if s.Results[0].Regression {
		t.Errorf("improvement flagged as regression: %+v", s.Results[0])
	}
	if !s.Results[1].Regression {
		t.Errorf("regression not flagged: %+v", s.Results[1])
	}
}

// TestParseTargetOptionalMarker: a leading "?" marks the target optional
// and is stripped from the name.
func TestParseTargetOptionalMarker(t *testing.T) {
	tg := parseTarget("?BenchmarkFuzzPersistentVsColdStart/rtl8029:ms/persist-campaign")
	if !tg.Optional || tg.Name != "BenchmarkFuzzPersistentVsColdStart/rtl8029" || tg.Unit != "ms/persist-campaign" {
		t.Fatalf("parsed %+v", tg)
	}
	if tg := parseTarget("BenchmarkFuzzExecsPerSec"); tg.Optional {
		t.Fatal("unmarked target parsed as optional")
	}
}

// TestGateOptionalTargetSkippedWhenNewInPR: an optional target absent from
// the merge base (the PR introduces the benchmark) is skipped, not failed —
// while a required target in the same run still gates.
func TestGateOptionalTargetSkippedWhenNewInPR(t *testing.T) {
	base := benchOut("BenchmarkFuzzExecsPerSec", 2000)
	head := benchOut("BenchmarkFuzzExecsPerSec", 2100) +
		benchOut("BenchmarkFuzzPersistentVsColdStart", 900)
	s := gate(base, head,
		targets("BenchmarkFuzzExecsPerSec", "?BenchmarkFuzzPersistentVsColdStart"), 0.20)
	if !s.Pass {
		t.Fatalf("gate failed on a PR-introduced optional benchmark: %+v", s.Results)
	}
	if !s.Results[1].Skipped || s.Results[1].Missing {
		t.Fatalf("optional result %+v, want Skipped", s.Results[1])
	}
}

// TestGateOptionalTargetStillGatesWhenPresentOnBothSides: once the base
// has samples, an optional target regresses the gate like any other.
func TestGateOptionalTargetStillGatesWhenPresentOnBothSides(t *testing.T) {
	base := benchOut("BenchmarkFuzzPersistentVsColdStart", 1000)
	head := benchOut("BenchmarkFuzzPersistentVsColdStart", 1500)
	s := gate(base, head, targets("?BenchmarkFuzzPersistentVsColdStart"), 0.20)
	if s.Pass || !s.Results[0].Regression {
		t.Fatalf("optional target with base samples did not gate: %+v", s.Results[0])
	}
}

// TestGateOptionalTargetMissingFromHeadFails: optional only tolerates a
// missing BASE — a benchmark that vanished from head must still fail.
func TestGateOptionalTargetMissingFromHeadFails(t *testing.T) {
	base := benchOut("BenchmarkFuzzPersistentVsColdStart", 1000)
	head := benchOut("BenchmarkSomethingElse", 1000)
	s := gate(base, head, targets("?BenchmarkFuzzPersistentVsColdStart"), 0.20)
	if s.Pass || !s.Results[0].Missing {
		t.Fatalf("optional target missing from head passed: %+v", s.Results[0])
	}
}

// perfbenchLine fabricates the last line of `perfbench --workload all`:
// every workload gets the four gated metrics, wall_s as given and the
// others fixed.
func perfbenchLine(correct bool, failed int, wall map[string]float64) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric)
	for w, v := range wall {
		metrics[w+"/wall_s"] = metric{v, "s"}
		metrics[w+"/cpu_s"] = metric{1.5 * v, "s"}
		metrics[w+"/time_to_bugs_s"] = metric{v / 4, "s"}
		metrics[w+"/peak_rss_mb"] = metric{14, "MiB"}
		metrics[w+"/trace.wall_s"] = metric{2 * v, "s"}
	}
	b, err := json.Marshal(map[string]any{"correct": correct, "attempted": 20, "failed": failed, "metrics": metrics})
	if err != nil {
		panic(err)
	}
	return string(b) + "\n"
}

// perfbenchRuns fabricates one correct perfbench line per wall time, the
// same wall time on every workload but those in slow, which run slower by
// the given factor.
func perfbenchRuns(walls []float64, slow map[string]float64) string {
	var sb strings.Builder
	for _, w := range walls {
		m := map[string]float64{"symbolic-sweep": w / 4, "fuzz-hunt": w, "fleet-loopback": 2 * w}
		for name, f := range slow {
			m[name] *= f
		}
		sb.WriteString(perfbenchLine(true, 0, m))
	}
	return sb.String()
}

var perfbenchTargets = targets(
	"symbolic-sweep:wall_s", "symbolic-sweep:cpu_s", "symbolic-sweep:time_to_bugs_s", "symbolic-sweep:peak_rss_mb",
	"fuzz-hunt:wall_s", "fuzz-hunt:cpu_s", "fuzz-hunt:time_to_bugs_s", "fuzz-hunt:peak_rss_mb",
	"fleet-loopback:wall_s", "fleet-loopback:cpu_s", "fleet-loopback:time_to_bugs_s", "fleet-loopback:peak_rss_mb",
)

var perfbenchWalls = []float64{0.40, 0.38, 0.41, 0.39, 0.40}

func TestParsePerfbenchLines(t *testing.T) {
	got, bad := parseBench(perfbenchRuns(perfbenchWalls, nil))
	if len(bad) != 0 {
		t.Fatalf("correct runs reported as failed: %v", bad)
	}
	if s := got["fuzz-hunt"]["wall_s"]; len(s) != 5 || s[0] != 0.40 || s[4] != 0.40 {
		t.Fatalf("fuzz-hunt wall_s samples = %v, want the five walls", s)
	}
	if s := got["symbolic-sweep"]["trace.wall_s"]; len(s) != 5 || s[0] != 0.20 {
		t.Fatalf("symbolic-sweep trace.wall_s samples = %v", s)
	}
	if _, ok := got["fuzz-hunt/wall_s"]; ok {
		t.Fatal("metric key kept whole instead of split into workload and metric")
	}
}

// TestGateFailsOnPerfbenchSlowdown: a 25% wall_s slowdown on one workload
// fails the gate on that workload's wall_s and nowhere else.
func TestGateFailsOnPerfbenchSlowdown(t *testing.T) {
	base := perfbenchRuns(perfbenchWalls, nil)
	for _, w := range []string{"fuzz-hunt", "symbolic-sweep"} {
		head := perfbenchRuns(perfbenchWalls, map[string]float64{w: 1.25})
		s := gate(base, head, perfbenchTargets, 0.20)
		if s.Pass {
			t.Fatalf("gate passed a 25%% %s slowdown", w)
		}
		for _, r := range s.Results {
			slowed := r.Name == w && (r.Unit == "wall_s" || r.Unit == "cpu_s" || r.Unit == "time_to_bugs_s")
			if r.Regression != slowed {
				t.Errorf("%s slowed: %s:%s regression = %v (delta %+.2f)", w, r.Name, r.Unit, r.Regression, r.Delta)
			}
		}
	}
}

// TestGatePassesPerfbenchWithinNoise: run-to-run spread inside the
// threshold passes.
func TestGatePassesPerfbenchWithinNoise(t *testing.T) {
	base := perfbenchRuns(perfbenchWalls, nil)
	head := perfbenchRuns([]float64{0.44, 0.36, 0.43, 0.42, 0.37}, map[string]float64{"fleet-loopback": 1.1})
	if s := gate(base, head, perfbenchTargets, 0.20); !s.Pass {
		t.Fatalf("gate failed inside the noise: %+v", s)
	}
}

// TestGateFailsOnIncorrectPerfbenchRun: one head run that is not correct,
// or that failed an operation, fails the gate although every number is
// unchanged; the same run on the base does not.
func TestGateFailsOnIncorrectPerfbenchRun(t *testing.T) {
	base := perfbenchRuns(perfbenchWalls, nil)
	walls := map[string]float64{"symbolic-sweep": 0.1, "fuzz-hunt": 0.4, "fleet-loopback": 0.8}
	for _, bad := range []string{perfbenchLine(false, 0, walls), perfbenchLine(true, 1, walls)} {
		head := perfbenchRuns(perfbenchWalls[:4], nil) + bad
		s := gate(base, head, perfbenchTargets, 0.20)
		if s.Pass || len(s.FailedHeadRuns) != 1 {
			t.Fatalf("gate over a failed head run %q: pass %v, failed runs %v", bad, s.Pass, s.FailedHeadRuns)
		}
		for _, r := range s.Results {
			if r.Regression || r.Missing {
				t.Fatalf("numbers alone should pass: %+v", r)
			}
		}
		if s := gate(base+bad, perfbenchRuns(perfbenchWalls, nil), perfbenchTargets, 0.20); !s.Pass {
			t.Fatalf("a failed base run failed the gate: %+v", s)
		}
	}
}

// TestGateFailsOnMissingPerfbenchTarget: a gated workload metric absent
// from either side fails.
func TestGateFailsOnMissingPerfbenchTarget(t *testing.T) {
	full := perfbenchRuns(perfbenchWalls, nil)
	partial := perfbenchLine(true, 0, map[string]float64{"symbolic-sweep": 0.1, "fuzz-hunt": 0.4})
	for _, c := range []struct{ base, head string }{{full, partial}, {partial, full}} {
		s := gate(c.base, c.head, perfbenchTargets, 0.20)
		if s.Pass {
			t.Fatal("gate passed with fleet-loopback missing from one side")
		}
		for _, r := range s.Results {
			if r.Missing != (r.Name == "fleet-loopback") {
				t.Errorf("%s:%s missing = %v", r.Name, r.Unit, r.Missing)
			}
		}
	}
}

// TestGateReadsGoBenchAndPerfbenchInOneFile: the CI input files hold the
// Go benchmark output followed by one perfbench line per seed; both parse
// and both gate.
func TestGateReadsGoBenchAndPerfbenchInOneFile(t *testing.T) {
	base := benchMemOut("BenchmarkFuzzWarmExec", 1000, 100, 6) + perfbenchRuns(perfbenchWalls, nil)
	head := benchMemOut("BenchmarkFuzzWarmExec", 1000, 100, 6) + perfbenchRuns(perfbenchWalls, nil)
	got, _ := parseBench(head)
	if len(got["BenchmarkFuzzWarmExec"]["allocs/op"]) != 6 || len(got["fuzz-hunt"]["wall_s"]) != 5 {
		t.Fatalf("mixed file parsed to %v", got)
	}
	tg := append(targets("BenchmarkFuzzWarmExec:allocs/op"), perfbenchTargets...)
	if s := gate(base, head, tg, 0.20); !s.Pass {
		t.Fatalf("identical mixed inputs failed: %+v", s)
	}
	slowHead := benchMemOut("BenchmarkFuzzWarmExec", 1000, 130, 6) + perfbenchRuns(perfbenchWalls, nil)
	if s := gate(base, slowHead, tg, 0.20); s.Pass || !s.Results[0].Regression {
		t.Fatalf("allocs/op regression in a mixed file passed: %+v", s.Results[0])
	}
	slowHead = benchMemOut("BenchmarkFuzzWarmExec", 1000, 100, 6) + perfbenchRuns(perfbenchWalls, map[string]float64{"fuzz-hunt": 1.25})
	if s := gate(base, slowHead, tg, 0.20); s.Pass || s.Results[0].Regression {
		t.Fatalf("fuzz-hunt slowdown in a mixed file: %+v", s.Results)
	}
}
