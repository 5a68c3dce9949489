package fuzz

import (
	"testing"

	"repro/internal/binimg"
	"repro/internal/corpus"
	"repro/internal/exerciser"
	"repro/internal/workload"
)

// FuzzImageParse feeds arbitrary bytes to the driver-image boundary: every
// input either fails binimg.Parse or survives static analysis, both
// workload plans and one bounded executor run without a panic or a hang.
// The smallest corpus images seed it (each input is a whole image, and the
// larger ones run up to 130 KB), and testdata/fuzz/FuzzImageParse holds
// hostile edits of one. Cap minimization:
//
//	go test -run '^$' -fuzz '^FuzzImageParse$' -fuzztime 30s -fuzzminimizetime 3s ./internal/fuzz/
func FuzzImageParse(f *testing.F) {
	for _, name := range []string{"ddk-sample", "ddk-sample-synthetic", "rtl8029"} {
		img, err := corpus.Build(name, corpus.Buggy)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img.Marshal())
	}
	opts := DefaultOptions()
	opts.MaxStepsPerEntry = 5_000 // keep one input to milliseconds
	f.Fuzz(func(t *testing.T, b []byte) {
		img, err := binimg.Parse(b)
		if err != nil {
			return
		}
		_ = binimg.Analyze(img)
		blocks := binimg.StaticBlocks(img)
		for _, scenario := range []string{workload.ScenarioLinear, workload.ScenarioPnP} {
			_ = workload.Build(img, scenario)
		}
		ex := NewExecutor(img, exerciser.NewCoverage(len(blocks)), opts)
		if res := ex.Run(&Feed{Data: b[:min(len(b), 64)]}); res.Steps == 0 && len(res.Entries) > 0 {
			t.Fatalf("entries %v ran no instruction", res.Entries)
		}
	})
}

// FuzzFeedRun feeds arbitrary bytes to the feed boundary: every input
// either fails UnmarshalFeed or runs on one persistent rtl8029 executor,
// and RunTraced (a cold, traced re-execution) reports what Run reported.
// The executor lives across inputs, so later inputs resume from snapshots
// earlier ones recorded. Seeds are in testdata/fuzz/FuzzFeedRun.
//
//	go test -run '^$' -fuzz '^FuzzFeedRun$' -fuzztime 30s -fuzzminimizetime 3s ./internal/fuzz/
func FuzzFeedRun(f *testing.F) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		f.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Persist = true
	ex := NewExecutor(img, nil, opts)
	f.Add([]byte(`{"data":"AAAAAA=="}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		feed, err := UnmarshalFeed(b)
		if err != nil {
			return
		}
		run := ex.Run(feed)
		traced := ex.RunTraced(feed)
		if traced.Trace == nil {
			t.Fatal("RunTraced returned no trace")
		}
		run.Trace, traced.Trace = nil, nil
		compareExec(t, "Run vs RunTraced", run, traced)
	})
}
