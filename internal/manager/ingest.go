package manager

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fuzz"
)

// IngestFuzzReport folds a completed single-process campaign report
// (ddtfuzz -json output) into the store: crashes join the fleet-deduped
// crash set with their minimized reproducers, and the campaign's final
// coverage lands as one trend sample. This is how the nightly workflow
// posts its results into a ddtd state directory instead of diffing raw
// artifacts.
func (s *State) IngestFuzzReport(rep *fuzz.Report, worker string) error {
	if rep.Driver == "" {
		return fmt.Errorf("manager: fuzz report has no driver")
	}
	if worker == "" {
		worker = "ingest"
	}
	for _, c := range rep.Crashes {
		cc := *c
		if cc.Feed == nil {
			// Reports from before Crash carried its feed inline keep the
			// reproducer in the CrashFeeds map.
			cc.Feed = rep.CrashFeeds[c.Key()]
		}
		s.AddCrash(rep.Driver, worker, &cc)
	}
	pt := CoverageTrendPoint{
		Time:           s.now(),
		Driver:         rep.Driver,
		Blocks:         rep.BlocksCovered,
		Static:         rep.BlocksStatic,
		Execs:          rep.Execs,
		Instructions:   rep.Instructions,
		Source:         worker,
		SnapHits:       rep.SnapHits,
		SnapSharedHits: rep.SnapSharedHits,
		SnapMisses:     rep.SnapMisses,
	}
	s.AppendCoverageTrend(pt)
	return nil
}

// AppendCoverageTrend appends an externally produced coverage sample (an
// ingested nightly report, as opposed to a live worker merge).
func (s *State) AppendCoverageTrend(pt CoverageTrendPoint) {
	s.mu.Lock()
	s.covTr = append(s.covTr, pt)
	d := s.driver(pt.Driver)
	if pt.Static > d.static {
		d.static = pt.Static
		d.coverage.TotalStatic = pt.Static
	}
	dir := s.dir
	s.mu.Unlock()
	if dir != "" {
		s.appendTrend(dir, "coverage.jsonl", pt)
	}
}

// ParseBenchOutput parses `go test -bench` text output into bench trend
// points: one point per metric of each benchmark result line, e.g.
//
//	BenchmarkFuzzExecsPerSec-8   3   123456 ns/op   2861 execs/sec   4.2 ms/campaign
//
// yields points (ns/op, execs/sec, ms/campaign). Non-benchmark lines are
// skipped, so raw `go test` output pipes straight in.
func ParseBenchOutput(text string) []BenchTrendPoint {
	var out []BenchTrendPoint
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// fields[0] name-GOMAXPROCS, fields[1] iteration count, then
		// (value, unit) pairs.
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			out = append(out, BenchTrendPoint{Name: name, Metric: fields[i+1], Value: v})
		}
	}
	return out
}

// IngestBenchOutput parses bench text output and appends it to the bench
// trend series, stamping every point with the current time. It returns how
// many points were ingested.
func (s *State) IngestBenchOutput(text string) int {
	points := ParseBenchOutput(text)
	now := s.now()
	for i := range points {
		points[i].Time = now
	}
	s.AddBench(points)
	return len(points)
}
