package main

import (
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
	got := parseBench(out)
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
	got := parseBench(out)["BenchmarkExploreParallelSpeedup"]
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
