// Command benchgate is the CI benchmark regression gate: it reads the
// merge base's and the PR head's benchmark output, compares the median of
// selected metrics, writes a machine-readable BENCH_PR.json artifact, and
// exits non-zero when any tracked metric regressed beyond the threshold.
//
// Each input file may mix two kinds of line, told apart by their content:
//
//   - `go test -bench` result lines ("BenchmarkX-8  3  1234 ns/op ...");
//   - perfbench result lines, the one JSON object `bash perfbench/run.sh
//     --workload all` prints last ({"correct":..,"failed":..,"metrics":..}).
//     A metric key "<workload>/<metric>" becomes the target
//     "<workload>:<metric>".
//
// Usage:
//
//	benchgate -base base.txt -head head.txt -out BENCH_PR.json \
//	    -threshold 0.20 \
//	    -bench 'BenchmarkFuzzWarmExec:us/exec' \
//	    -bench 'fuzz-hunt:wall_s'
//
// A tracked entry is "Name" (gates the benchmark's ns/op) or "Name:unit"
// (gates a b.ReportMetric unit, e.g. a per-session wall clock, or one
// perfbench metric of one workload). Gating a per-session metric instead
// of raw ns/op keeps the gate honest when a PR changes how many sessions
// one benchmark iteration runs — total-iteration time then shifts by
// construction while the per-session cost, the thing the gate protects, is
// still comparable. Lower must be better for every tracked metric.
//
// With `-benchmem` in the bench invocation, B/op and allocs/op appear as
// ordinary value/unit columns and can be gated the same way
// ("Name:allocs/op") — the CI gate tracks allocation counts on the
// hot-path benchmarks so an alloc-count regression fails even when extra
// garbage hasn't (yet) shown up in wall clock.
//
// A perfbench run on the head that is not correct, or that failed any
// operation, fails the gate whatever its numbers: a faster wrong answer is
// not a pass.
//
// A leading "?" marks a target as optional-on-base: a benchmark the PR
// itself introduces has no merge-base samples, and without the marker the
// missing-side rule would fail the introducing PR's own gate. An optional
// target missing from the BASE output is reported and skipped; missing
// from the HEAD output it still fails — a benchmark that existed on head
// and silently vanished must not pass.
//
// benchstat remains the human-readable comparison of the Go benchmarks in
// the CI log; the gate decision is made here so it needs no external
// tooling and stays testable (see main_test.go: the gate demonstrably
// fails on an injected slowdown). Medians over repeated runs (`-count`,
// or one perfbench line per seed) make the verdict robust to one noisy
// run.
//
// Exit codes: 0 pass, 1 regression (or a tracked metric missing from one
// side — a silently vanished benchmark must not pass the gate — or a
// failed head perfbench run), 2 usage/IO error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// target is one tracked benchmark metric.
type target struct {
	Name string
	Unit string // "ns/op" when the -bench entry has no :unit suffix
	// Optional marks a "?"-prefixed entry: tolerated missing from the base
	// output (a benchmark this PR introduces), never from the head output.
	Optional bool
}

func parseTarget(v string) target {
	var t target
	if strings.HasPrefix(v, "?") {
		t.Optional = true
		v = v[1:]
	}
	if i := strings.IndexByte(v, ':'); i > 0 {
		t.Name, t.Unit = v[:i], v[i+1:]
	} else {
		t.Name, t.Unit = v, "ns/op"
	}
	return t
}

// benchList collects repeated -bench flags.
type benchList []target

func (b *benchList) String() string {
	parts := make([]string, len(*b))
	for i, t := range *b {
		parts[i] = t.Name + ":" + t.Unit
		if t.Optional {
			parts[i] = "?" + parts[i]
		}
	}
	return strings.Join(parts, ",")
}

func (b *benchList) Set(v string) error {
	*b = append(*b, parseTarget(v))
	return nil
}

// perfbenchRun is a perfbench result line.
type perfbenchRun struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// samples holds every value per name and unit; repeated runs append.
type samples map[string]map[string][]float64

func (s samples) add(name, unit string, v float64) {
	if s[name] == nil {
		s[name] = make(map[string][]float64)
	}
	s[name][unit] = append(s[name][unit], v)
}

// parseBench extracts every value/unit sample per benchmark name (the -N
// GOMAXPROCS suffix stripped) from `go test -bench` output, and every
// "<workload>/<metric>" value of each perfbench result line as name
// workload, unit metric. Multiple samples per name come from -count or
// from one perfbench line per seed. bad describes each perfbench run that
// was not correct or failed an operation.
func parseBench(out string) (s samples, bad []string) {
	s = make(samples)
	runs := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "{") {
			var r perfbenchRun
			if json.Unmarshal([]byte(line), &r) != nil || r.Metrics == nil {
				continue
			}
			runs++
			if !r.Correct || r.Failed > 0 {
				bad = append(bad, fmt.Sprintf("perfbench run %d: correct %v, %d failed operation(s)",
					runs, r.Correct, r.Failed))
			}
			for key, m := range r.Metrics {
				if workload, metric, ok := strings.Cut(key, "/"); ok {
					s.add(workload, metric, m.Value)
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields: name, iterations, then value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break // not a value/unit tail (e.g. a log line)
			}
			s.add(name, fields[i+1], v)
		}
	}
	return s, bad
}

// median returns the middle sample (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Result is one tracked metric's verdict in BENCH_PR.json.
type Result struct {
	Name       string  `json:"name"`
	Unit       string  `json:"unit"`
	Base       float64 `json:"base"`
	Head       float64 `json:"head"`
	BaseRuns   int     `json:"base_runs"`
	HeadRuns   int     `json:"head_runs"`
	Delta      float64 `json:"delta"` // (head-base)/base; positive = slower
	Regression bool    `json:"regression"`
	Missing    bool    `json:"missing"` // absent from base or head output
	// Skipped: an optional ("?") target absent from the base output — the
	// benchmark is new in this PR and rides until the base catches up.
	Skipped bool `json:"skipped,omitempty"`
}

// Summary is the BENCH_PR.json artifact.
type Summary struct {
	Threshold float64  `json:"threshold"`
	Pass      bool     `json:"pass"`
	Results   []Result `json:"results"`
	// FailedHeadRuns describes each head perfbench run that was not
	// correct or failed an operation; any one fails the gate.
	FailedHeadRuns []string `json:"failed_head_runs,omitempty"`
}

// gate compares the tracked metrics across the two outputs. A tracked
// metric missing on either side fails the gate, except an optional ("?")
// target missing only from the base, which is skipped. A failed head
// perfbench run fails it too.
func gate(baseOut, headOut string, targets []target, threshold float64) Summary {
	base, _ := parseBench(baseOut)
	head, bad := parseBench(headOut)
	s := Summary{Threshold: threshold, Pass: len(bad) == 0, FailedHeadRuns: bad}
	for _, tg := range targets {
		r := Result{Name: tg.Name, Unit: tg.Unit}
		bs, hs := base[tg.Name][tg.Unit], head[tg.Name][tg.Unit]
		r.BaseRuns, r.HeadRuns = len(bs), len(hs)
		if tg.Optional && len(bs) == 0 && len(hs) > 0 {
			r.Skipped = true
		} else if len(bs) == 0 || len(hs) == 0 {
			r.Missing = true
			s.Pass = false
		} else {
			r.Base = median(bs)
			r.Head = median(hs)
			r.Delta = (r.Head - r.Base) / r.Base
			r.Regression = r.Delta > threshold
			if r.Regression {
				s.Pass = false
			}
		}
		s.Results = append(s.Results, r)
	}
	return s
}

func main() {
	basePath := flag.String("base", "", "bench output of the merge base")
	headPath := flag.String("head", "", "bench output of the PR head")
	outPath := flag.String("out", "BENCH_PR.json", "JSON verdict artifact path")
	threshold := flag.Float64("threshold", 0.20, "fail when head is slower than base by more than this fraction")
	var benches benchList
	flag.Var(&benches, "bench", "metric to track, as Name or Name:unit, or workload:metric for perfbench lines (repeatable; default unit ns/op)")
	flag.Parse()

	if *basePath == "" || *headPath == "" || len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: -base, -head, and at least one -bench are required")
		os.Exit(2)
	}
	baseOut, err := os.ReadFile(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	headOut, err := os.ReadFile(*headPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	s := gate(string(baseOut), string(headOut), benches, *threshold)
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	for _, f := range s.FailedHeadRuns {
		fmt.Printf("head %s: FAIL\n", f)
	}
	for _, r := range s.Results {
		label := r.Name + " [" + r.Unit + "]"
		switch {
		case r.Skipped:
			fmt.Printf("%-60s new in this PR (no base samples), skipped\n", label)
		case r.Missing:
			fmt.Printf("%-60s MISSING (base %d run(s), head %d run(s))\n", label, r.BaseRuns, r.HeadRuns)
		default:
			verdict := "ok"
			if r.Regression {
				verdict = fmt.Sprintf("REGRESSION (> %+.0f%%)", 100**threshold)
			}
			fmt.Printf("%-60s base %.4g  head %.4g  delta %+.1f%%  %s\n",
				label, r.Base, r.Head, 100*r.Delta, verdict)
		}
	}
	if !s.Pass {
		fmt.Println("benchgate: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchgate: pass")
}
