package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/corpus"
)

// sessionAllocCeiling and sessionBytesCeiling bound the heap objects and
// bytes one sequential rtl8029 session (NewEngine and TestDriver)
// allocates in TestSessionAllocCeiling, at about 5% above the measurement.
// Measured 36,196 objects and 6,412,000 bytes; under -race, 37,979
// objects and 6,889,728 bytes. A two-way symbolic branch makes one fork,
// and forks share the kernel maps until one side writes; with two forks
// per branch, each deep-copying every map, a session made about 59,500
// objects and 8.7 MB, and a per-path device state copied on every fork
// added about 1,400 objects more.
const (
	sessionAllocCeiling     = 38_000
	sessionBytesCeiling     = 6_735_000
	raceSessionAllocCeiling = 39_900
	raceSessionBytesCeiling = 7_235_000
)

// TestSessionAllocCeiling pins what one sequential symbolic session on
// rtl8029 allocates, machine set-up included.
func TestSessionAllocCeiling(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	session := func() {
		if _, err := NewEngine(img, DefaultOptions()).TestDriver(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	session() // warm the pools and the memoised corpus build
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		session()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("session: %d allocs, %d bytes", allocs, bytes)
	allocCeiling, bytesCeiling := uint64(sessionAllocCeiling), uint64(sessionBytesCeiling)
	if raceEnabled {
		allocCeiling, bytesCeiling = raceSessionAllocCeiling, raceSessionBytesCeiling
	}
	if allocs > allocCeiling {
		t.Fatalf("session allocates %d objects, ceiling %d", allocs, allocCeiling)
	}
	if bytes > bytesCeiling {
		t.Fatalf("session allocates %d bytes, ceiling %d", bytes, bytesCeiling)
	}
}
