package manager

import (
	"fmt"

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
