// Command perfbench is the repository benchmark: three closed-loop,
// fixed-work workloads (symbolic-sweep, fuzz-hunt, fleet-loopback) driven
// entirely through the program's public functions and exported hook
// fields. It repeats rounds of the chosen workload for --seconds, checks
// every round's outputs, and prints the end-to-end metrics (--trace 0) or
// the per-layer metrics of a traced run (--trace 1). The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
//	go build -o perfbench . && ./perfbench --workload fuzz-hunt --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Metric is one reported metric name and its unit.
type Metric struct {
	Name, Unit string
}

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []Metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"paths_per_s", "1/s"},
	{"execs_per_s", "1/s"},
	{"time_to_bugs_s", "s"},
	{"blocks_covered", "count"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order. A
// workload that does not drive a layer reports it as 0.
var perLayer = []Metric{
	{"setup.assemble_s", "s"},
	{"setup.machine_s", "s"},
	{"setup.manager_s", "s"},
	{"trace.wall_s", "s"},
	{"trace_overhead_s", "s"},
	// symbolic-sweep: hook spans, engine counters, residual.
	{"kernel.api_calls", "count"},
	{"kernel.api_s", "s"},
	{"hw.io_calls", "count"},
	{"hw.io_s", "s"},
	{"checkers.mem_calls", "count"},
	{"checkers.mem_s", "s"},
	{"checkers.pin_calls", "count"},
	{"checkers.pin_s", "s"},
	{"exerciser.onblock_calls", "count"},
	{"exerciser.onblock_s", "s"},
	{"kernel.intr_calls", "count"},
	{"kernel.intr_s", "s"},
	{"kernel.intr_forks", "count"},
	{"vm.instructions", "count"},
	{"vm.forks", "count"},
	{"vm.paths", "count"},
	{"solver.queries", "count"},
	{"solver.cache_hit_ratio", "ratio"},
	{"solver.probes_per_query", "count"},
	{"solver.unknown", "count"},
	{"solver.replay_us_per_query", "us"},
	{"vm.other_s", "s"},
	// fuzz-hunt: campaign counters, re-driven per-call costs, weighted
	// layer seconds, residual.
	{"fuzz.warm_share", "ratio"},
	{"fuzz.warm_exec_us", "us"},
	{"fuzz.cold_exec_us", "us"},
	{"fuzz.snap_hit_ratio", "ratio"},
	{"fuzz.instrs_per_exec", "count"},
	{"fuzz.skipped_instr_share", "ratio"},
	{"fuzz.triage_execs", "count"},
	{"fuzz.lazy_reexecs", "count"},
	{"fuzz.corpus_size", "count"},
	{"fuzz.nonleader_blocks", "count"},
	{"fuzz.exec_cold_us", "us"},
	{"fuzz.exec_warm_us", "us"},
	{"fuzz.runtraced_us", "us"},
	{"fuzz.mutate_us", "us"},
	{"fuzz.corpus_us", "us"},
	{"exerciser.merge_us", "us"},
	{"fuzz.exec_s", "s"},
	{"fuzz.triage_s", "s"},
	{"fuzz.mutate_s", "s"},
	{"fuzz.corpus_s", "s"},
	{"exerciser.merge_s", "s"},
	{"campaign.residual_s", "s"},
	// fleet-loopback: manager RPC per route, lease handoff, state flush,
	// residual.
	{"manager.rpc_calls.connect", "count"},
	{"manager.rpc_calls.poll", "count"},
	{"manager.rpc_calls.sync", "count"},
	{"manager.rpc_calls.report", "count"},
	{"manager.rpc_p50_ms.connect", "ms"},
	{"manager.rpc_p50_ms.poll", "ms"},
	{"manager.rpc_p50_ms.sync", "ms"},
	{"manager.rpc_p50_ms.report", "ms"},
	{"manager.rpc_p99_ms.connect", "ms"},
	{"manager.rpc_p99_ms.poll", "ms"},
	{"manager.rpc_p99_ms.sync", "ms"},
	{"manager.rpc_p99_ms.report", "ms"},
	{"manager.server_s.connect", "s"},
	{"manager.server_s.poll", "s"},
	{"manager.server_s.sync", "s"},
	{"manager.server_s.report", "s"},
	{"manager.rpc_wait_s", "s"},
	{"manager.bytes_per_exec", "B"},
	{"manager.lease_gap_s", "s"},
	{"manager.flush_s", "s"},
	{"fleet.rpc_lane_s", "s"},
	{"fleet.residual_s", "s"},
}

// Setup splits a round's set-up time.
type Setup struct {
	Assemble, Machine, Manager time.Duration
}

// Total is the round's setup_s.
func (s Setup) Total() time.Duration { return s.Assemble + s.Machine + s.Manager }

// Round is the outcome of one round of a workload.
type Round struct {
	Setup Setup
	// Wall is the time the fixed work took; CPU the process CPU time
	// spent meanwhile.
	Wall, CPU time.Duration
	// Attempted and Failed count the round's checked operations; Failures
	// describes each failed one.
	Attempted, Failed int
	Failures          []string
	// Values holds the round's metrics by name: the end-to-end ones and,
	// in traced rounds, the per-layer ones.
	Values map[string]float64
}

func newRound() *Round { return &Round{Values: make(map[string]float64)} }

// finish stores the round's set-up, wall and CPU times among its values.
func (r *Round) finish() {
	r.Values["setup_s"] = r.Setup.Total().Seconds()
	r.Values["setup.assemble_s"] = r.Setup.Assemble.Seconds()
	r.Values["setup.machine_s"] = r.Setup.Machine.Seconds()
	r.Values["setup.manager_s"] = r.Setup.Manager.Seconds()
	r.Values["wall_s"] = r.Wall.Seconds()
	r.Values["trace.wall_s"] = r.Wall.Seconds()
	r.Values["cpu_s"] = r.CPU.Seconds()
}

// fail records one failed operation.
func (r *Round) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// Workload runs one round: set-up, the fixed work, and the output checks.
// rec is nil in untraced rounds; a traced round records its layer spans
// into rec and fills the per-layer values.
type Workload interface {
	Round(seed int64, rec *Recorder) (*Round, error)
}

// stateDir is where workloads put their on-disk state (the fleet's ddtd
// state directories). Set by -state.
var stateDir = os.TempDir()

// workloadNames are the workloads in BENCHMARK.json order.
var workloadNames = []string{"symbolic-sweep", "fuzz-hunt", "fleet-loopback"}

func workloads() map[string]Workload {
	return map[string]Workload{
		"symbolic-sweep": defaultSweep(),
		"fuzz-hunt":      defaultHunt(),
		"fleet-loopback": defaultFleet(),
	}
}

// Result is the benchmark's final JSON line.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]MetricValue `json:"metrics"`
}

// MetricValue is one metric in the result.
type MetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Run repeats rounds of w until the next round would overrun seconds
// (at least one round), then aggregates them into the result. A traced
// run writes its last traced round's spans to spansOut unless it is "".
func Run(w Workload, seed int64, seconds float64, trace bool, spansOut string) (*Result, error) {
	start := time.Now()
	var plain, traced []*Round
	var lastRec *Recorder
	for {
		t0 := time.Now()
		runtime.GC()
		mem := sampleMemory()
		r, err := w.Round(seed, nil)
		peak := mem.done()
		if err != nil {
			return nil, err
		}
		r.finish()
		r.Values["peak_rss_mb"] = peak
		plain = append(plain, r)
		if trace {
			rec := NewRecorder()
			runtime.GC()
			rt, err := w.Round(seed, rec)
			if err != nil {
				return nil, err
			}
			rt.finish()
			traced = append(traced, rt)
			lastRec = rec
		}
		took := time.Since(t0).Seconds()
		if time.Since(start).Seconds()+took > seconds {
			break
		}
	}
	if lastRec != nil && spansOut != "" {
		if err := lastRec.WriteTSV(spansOut); err != nil {
			return nil, err
		}
	}

	res := &Result{Metrics: make(map[string]MetricValue)}
	for _, r := range append(append([]*Round(nil), plain...), traced...) {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, f := range r.Failures {
			fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	put := func(m Metric, v float64) { res.Metrics[m.Name] = MetricValue{v, m.Unit} }
	if !trace {
		for _, m := range endToEnd {
			put(m, medianOf(plain, m.Name))
		}
		return res, nil
	}
	// Per-layer values all come from one traced round, the one with the
	// median wall time, so each workload's layer identity holds exactly
	// on the reported numbers.
	mid := medianRound(traced)
	mid.Values["trace_overhead_s"] = mid.Wall.Seconds() - medianOf(plain, "wall_s")
	for _, m := range perLayer {
		put(m, mid.Values[m.Name])
	}
	return res, nil
}

// medianOf is the median of a value over rounds.
func medianOf(rs []*Round, name string) float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = r.Values[name]
	}
	return median(vs)
}

// medianRound returns the round with the median wall time (the lower of
// the two middle rounds for an even count).
func medianRound(rs []*Round) *Round {
	s := append([]*Round(nil), rs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Wall < s[j].Wall })
	return s[(len(s)-1)/2]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// shuffled returns 0..n-1 in an order drawn from seed.
func shuffled(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

func main() {
	name := flag.String("workload", "", "workload: symbolic-sweep, fuzz-hunt, fleet-loopback, or all (each one untraced and traced)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long to repeat rounds of a workload")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	state := flag.String("state", "", "directory for on-disk workload state (default: the system temp dir)")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, not %d\n", *trace)
		os.Exit(2)
	}
	// "all" runs every workload, untraced and then traced, and prefixes
	// each metric with its workload's name.
	type job struct {
		name  string
		trace bool
	}
	jobs := []job{{*name, *trace == 1}}
	prefix := func(string) string { return "" }
	if *name == "all" {
		jobs = nil
		for _, n := range workloadNames {
			jobs = append(jobs, job{n, false}, job{n, true})
		}
		prefix = func(n string) string { return n + "/" }
	} else if workloads()[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if *state != "" {
		stateDir = *state
	}
	res := &Result{Correct: true, Metrics: make(map[string]MetricValue)}
	for _, j := range jobs {
		r, err := Run(workloads()[j.name], *seed, *seconds, j.trace, filepath.Join(stateDir, "spans-"+j.name+".tsv"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", j.name, err)
			os.Exit(1)
		}
		list := endToEnd
		if j.trace {
			list = perLayer
		}
		for _, m := range list {
			name := prefix(j.name) + m.Name
			res.Metrics[name] = r.Metrics[m.Name]
			fmt.Printf("%-48s %14.6g %s\n", name, r.Metrics[m.Name].Value, m.Unit)
		}
		fmt.Printf("%sattempted %d, failed %d\n", prefix(j.name), r.Attempted, r.Failed)
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Correct = res.Correct && r.Correct
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
