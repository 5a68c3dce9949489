package fuzz

import (
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/exerciser"
)

// warmExecAllocCeiling and warmExecBytesCeiling bound the heap objects and
// bytes one warm execution allocates in TestWarmExecAllocCeiling, at the
// measurement plus at most 10%. Measured 2 objects and 240 bytes: the
// ExecResult and its entry log. The execution restores its snapshot into
// the executor's kept state, so the state, its memory overlay, kernel maps
// and block table are reused; spinlocks are map values, so restoring the
// one the driver's Halt freed allocates nothing. Under -race, also 2
// objects and 240 bytes.
const (
	warmExecAllocCeiling     = 2
	warmExecBytesCeiling     = 264
	raceWarmExecAllocCeiling = 2
	raceWarmExecBytesCeiling = 264
)

// TestWarmExecAllocCeiling pins what a warm execution allocates: a fixed
// rtl8029 feed resumed from a warmed private snapshot fabric, through the
// data path, with coverage on.
func TestWarmExecAllocCeiling(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Persist = true
	e := NewExecutor(img, exerciser.NewCoverage(0), opts)
	feed := &Feed{Data: make([]byte, 64)}
	e.Run(feed) // cold: records the boot snapshots
	res := e.Run(feed)
	if !res.Warm || res.Crash != nil || res.Steps <= res.SkippedSteps {
		t.Fatalf("feed did not run warm past the boot: warm %v, crash %v, %d of %d steps skipped",
			res.Warm, res.Crash, res.SkippedSteps, res.Steps)
	}
	allocs := testing.AllocsPerRun(20, func() { e.Run(feed) })
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		e.Run(feed)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("warm exec: %.0f allocs, %d bytes, %d entries, %d steps (%d skipped)",
		allocs, bytes, len(res.Entries), res.Steps, res.SkippedSteps)
	allocCeiling, bytesCeiling := warmExecAllocCeiling, uint64(warmExecBytesCeiling)
	if raceEnabled {
		allocCeiling, bytesCeiling = raceWarmExecAllocCeiling, raceWarmExecBytesCeiling
	}
	if allocs > float64(allocCeiling) {
		t.Fatalf("warm exec allocates %.0f objects, ceiling %d", allocs, allocCeiling)
	}
	if bytes > bytesCeiling {
		t.Fatalf("warm exec allocates %d bytes, ceiling %d", bytes, bytesCeiling)
	}
}
