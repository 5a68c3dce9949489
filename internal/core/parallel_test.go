package core

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/corpus"
)

// seedGolden pins the exact results of the sequential engine. A workers=1
// run must reproduce them bit-for-bit: same bug set, same path count, same
// coverage, same fork/instruction/query totals. Any drift here means a
// change altered sequential semantics, not just structure. series and last
// pin the coverage clock: the number of CoverageSeries points and the last
// one. Its times are the session's running instruction count, so a clock
// that restarted per phase or per context would end far earlier (the
// series clamps a falling time to the previous point's).
//
// Re-pinned when the interrupt-injection budget became path-global: the
// old per-phase counter reset granted every phase a fresh entry-sibling
// fork, so the fixed budget explores fewer (now correctly capped) paths.
// Bug sets and coverage are unchanged.
var seedGolden = map[string]struct {
	bugs    []string
	paths   int
	covered int
	static  int
	forks   uint64
	instr   uint64
	queries uint64
	series  int
	last    CoveragePointOut
}{
	"amd-pcnet": {
		bugs:  []string{"resource leak@0x1000f8", "resource leak@0x100298"},
		paths: 91, covered: 339, static: 413, forks: 91, instr: 4729, queries: 102,
		series: 339, last: CoveragePointOut{4678, 339},
	},
	"rtl8029": {
		bugs: []string{
			"memory corruption@0x100150",
			"race condition@0x100860",
			"resource leak@0x100060",
			"segmentation fault@0x1004b0",
			"segmentation fault@0x100630",
		},
		paths: 473, covered: 222, static: 265, forks: 652, instr: 12734, queries: 1229,
		series: 222, last: CoveragePointOut{11665, 222},
	},
}

// otherGolden pins the sequential engine's results on the corpus drivers
// outside seedGolden: bug keys, paths, coverage and the fork, instruction
// and query totals. It is a separate table so that nonGoldenDrivers, and
// with it the TestPipelined* suites, keep these drivers.
var otherGolden = map[string]struct {
	bugs    []string
	paths   int
	covered int
	static  int
	forks   uint64
	instr   uint64
	queries uint64
}{
	"intel-pro1000": {
		bugs:  []string{"resource leak@0x100170"},
		paths: 131, covered: 2119, static: 2638, forks: 131, instr: 17308, queries: 161,
	},
	"intel-pro100": {
		bugs:  []string{"kernel crash@0x100588"},
		paths: 130, covered: 459, static: 566, forks: 132, instr: 9708, queries: 255,
	},
	"intel-ac97": {
		bugs:  []string{"race condition@0x100388"},
		paths: 73, covered: 510, static: 630, forks: 82, instr: 4251, queries: 63,
	},
	"ensoniq-audiopci": {
		bugs: []string{
			"race condition@0x100488",
			"race condition@0x1004e0",
			"segmentation fault@0x1000f0",
			"segmentation fault@0x1001d8",
		},
		paths: 195, covered: 855, static: 1064, forks: 253, instr: 6351, queries: 308,
	},
	"ddk-sample": {
		bugs: []string{
			"kernel crash@0x1001d8",
			"kernel crash@0x100240",
			"kernel crash@0x100300",
			"kernel crash@0x100348",
			"kernel crash@0x1005a0",
			"resource leak@0x100068",
			"segmentation fault@0x100070",
			"segmentation fault@0x1002b8",
		},
		paths: 14, covered: 140, static: 175, forks: 21, instr: 632, queries: 35,
	},
	"ddk-sample-synthetic": {
		bugs: []string{
			"deadlock@0x100180",
			"kernel crash@0x1004a0",
			"kernel crash@0x1004c8",
			"kernel crash@0x1004f8",
			"kernel crash@0x100528",
		},
		paths: 27, covered: 152, static: 182, forks: 35, instr: 778, queries: 49,
	},
	"promise-ultra133": {
		bugs:  []string{"kernel crash@0x100608", "memory corruption@0x100588"},
		paths: 95, covered: 299, static: 373, forks: 105, instr: 6467, queries: 90,
	},
}

func sortedBugKeys(rep *Report) []string {
	keys := make([]string, 0, len(rep.Bugs))
	for _, b := range rep.Bugs {
		keys = append(keys, b.Key())
	}
	sort.Strings(keys)
	return keys
}

// TestSequentialMatchesSeedEngine: the workers=1 engine is equivalent to
// the pre-refactor sequential engine on the golden drivers.
func TestSequentialMatchesSeedEngine(t *testing.T) {
	for driver, want := range seedGolden {
		opts := DefaultOptions()
		opts.Workers = 1
		rep := runDDT(t, driver, corpus.Buggy, opts)

		if got := sortedBugKeys(rep); !reflect.DeepEqual(got, want.bugs) {
			t.Errorf("%s: bug set %v, seed engine found %v", driver, got, want.bugs)
		}
		if rep.PathsExplored != want.paths {
			t.Errorf("%s: paths = %d, seed %d", driver, rep.PathsExplored, want.paths)
		}
		if rep.BlocksCovered != want.covered || rep.BlocksStatic != want.static {
			t.Errorf("%s: coverage = %d/%d, seed %d/%d",
				driver, rep.BlocksCovered, rep.BlocksStatic, want.covered, want.static)
		}
		if rep.StatesForked != want.forks {
			t.Errorf("%s: forks = %d, seed %d", driver, rep.StatesForked, want.forks)
		}
		if rep.Instructions != want.instr {
			t.Errorf("%s: instructions = %d, seed %d", driver, rep.Instructions, want.instr)
		}
		if rep.SolverQueries != want.queries {
			t.Errorf("%s: solver queries = %d, seed %d", driver, rep.SolverQueries, want.queries)
		}
		if n := len(rep.CoverageSeries); n != want.series || rep.CoverageSeries[n-1] != want.last {
			t.Errorf("%s: coverage series of %d points ending %v, seed %d ending %v",
				driver, n, rep.CoverageSeries[n-1], want.series, want.last)
		}
	}
}

// TestSequentialMatchesOtherGolden: the workers=1 engine reproduces
// otherGolden on every corpus driver outside seedGolden, and the two
// tables together cover the corpus.
func TestSequentialMatchesOtherGolden(t *testing.T) {
	if n := len(seedGolden) + len(otherGolden); n != len(corpus.Names()) {
		t.Errorf("seedGolden and otherGolden pin %d drivers, corpus has %d", n, len(corpus.Names()))
	}
	for driver, want := range otherGolden {
		opts := DefaultOptions()
		opts.Workers = 1
		rep := runDDT(t, driver, corpus.Buggy, opts)

		if got := sortedBugKeys(rep); !reflect.DeepEqual(got, want.bugs) {
			t.Errorf("%s: bug set %v, pinned %v", driver, got, want.bugs)
		}
		if rep.PathsExplored != want.paths {
			t.Errorf("%s: paths = %d, pinned %d", driver, rep.PathsExplored, want.paths)
		}
		if rep.BlocksCovered != want.covered || rep.BlocksStatic != want.static {
			t.Errorf("%s: coverage = %d/%d, pinned %d/%d",
				driver, rep.BlocksCovered, rep.BlocksStatic, want.covered, want.static)
		}
		if rep.StatesForked != want.forks {
			t.Errorf("%s: forks = %d, pinned %d", driver, rep.StatesForked, want.forks)
		}
		if rep.Instructions != want.instr {
			t.Errorf("%s: instructions = %d, pinned %d", driver, rep.Instructions, want.instr)
		}
		if rep.SolverQueries != want.queries {
			t.Errorf("%s: solver queries = %d, pinned %d", driver, rep.SolverQueries, want.queries)
		}
	}
}

// TestWorkersZeroIsSequential: Workers=0 (the zero value) must behave as
// the sequential engine, so existing callers see no change.
func TestWorkersZeroIsSequential(t *testing.T) {
	want := seedGolden["amd-pcnet"]
	rep := runDDT(t, "amd-pcnet", corpus.Buggy, DefaultOptions()) // Workers zero value
	if got := sortedBugKeys(rep); !reflect.DeepEqual(got, want.bugs) {
		t.Errorf("bug set %v, want %v", got, want.bugs)
	}
	if rep.Instructions != want.instr || rep.PathsExplored != want.paths {
		t.Errorf("paths/instr = %d/%d, want %d/%d",
			rep.PathsExplored, rep.Instructions, want.paths, want.instr)
	}
	if rep.Workers != 1 {
		t.Errorf("report workers = %d, want 1", rep.Workers)
	}
}

// TestParallelExploreFindsSameBugs: the workers=4 engine must find exactly
// the same bug set as the sequential engine on the golden drivers (run in
// CI under -race — this is also the parallel engine's race regression
// test). Path ORDER and count may differ (the path budget is a global
// bound over a racy schedule); the bug set and coverage must not shrink.
func TestParallelExploreFindsSameBugs(t *testing.T) {
	for driver, want := range seedGolden {
		opts := DefaultOptions()
		opts.Workers = 4
		rep := runDDT(t, driver, corpus.Buggy, opts)

		if got := sortedBugKeys(rep); !reflect.DeepEqual(got, want.bugs) {
			t.Errorf("%s workers=4: bug set %v, sequential found %v", driver, got, want.bugs)
		}
		if rep.BlocksCovered < want.covered {
			t.Errorf("%s workers=4: coverage %d below sequential %d",
				driver, rep.BlocksCovered, want.covered)
		}
		if rep.Workers != 4 {
			t.Errorf("%s: report workers = %d, want 4", driver, rep.Workers)
		}
	}
}

// TestParallelFixedVariantIsClean: zero false positives must hold under
// parallelism too — the corrected golden drivers find nothing with 4
// workers.
func TestParallelFixedVariantIsClean(t *testing.T) {
	for _, driver := range []string{"rtl8029", "amd-pcnet"} {
		opts := DefaultOptions()
		opts.Workers = 4
		rep := runDDT(t, driver, corpus.Fixed, opts)
		if len(rep.Bugs) != 0 {
			t.Errorf("fixed %s with 4 workers reported %d bug(s): %v",
				driver, len(rep.Bugs), sortedBugKeys(rep))
		}
	}
}

// TestParallelStopAtFirstBug: the early-exit policy works across workers.
func TestParallelStopAtFirstBug(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	opts.StopAtFirstBug = true
	rep := runDDT(t, "rtl8029", corpus.Buggy, opts)
	if len(rep.Bugs) == 0 {
		t.Fatal("no bug found with StopAtFirstBug")
	}
}

// TestParallelReportsCacheStats: a parallel run must surface shared-cache
// counters in the report (they are how the shared-cache win is measured).
func TestParallelReportsCacheStats(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	rep := runDDT(t, "amd-pcnet", corpus.Buggy, opts)
	if rep.SolverQueries == 0 {
		t.Error("no solver queries aggregated across workers")
	}
	// Hits/evictions may legitimately be 0 on a small driver; the point is
	// the fields exist and the query aggregate includes worker solvers.
	t.Logf("queries=%d hits=%d evictions=%d",
		rep.SolverQueries, rep.SolverCacheHits, rep.SolverCacheEvictions)
}

// TestPhaseLedgerSumsToPaths: on every corpus driver, sequentially and
// with a worker pool, the report's per-phase ledger starts at DriverEntry,
// no phase overshoots its path budget by more than the paths other
// workers had in flight, and the Exited column accounts for every
// explored path exactly once.
func TestPhaseLedgerSumsToPaths(t *testing.T) {
	for _, driver := range corpus.Names() {
		for _, workers := range []int{1, 4} {
			opts := DefaultOptions()
			opts.Workers = workers
			rep := runDDT(t, driver, corpus.Buggy, opts)
			if len(rep.Phases) == 0 || rep.Phases[0].Name != "DriverEntry" {
				t.Errorf("%s workers=%d: phases %+v do not start at DriverEntry", driver, workers, rep.Phases)
				continue
			}
			exited := 0
			for _, p := range rep.Phases {
				exited += p.Exited
				if p.Exited > opts.MaxPathsPerEntry+workers-1 {
					t.Errorf("%s workers=%d: phase %s exited %d paths, budget %d",
						driver, workers, p.Name, p.Exited, opts.MaxPathsPerEntry)
				}
			}
			if exited != rep.PathsExplored {
				t.Errorf("%s workers=%d: phase ledger exited %d != report paths %d",
					driver, workers, exited, rep.PathsExplored)
			}
		}
	}
}

// The TestPipelined* tests check the whole phase pipeline under a worker
// pool: every phase of a driver's workload plan is seeded by the survivors
// of the phases before it, so a lost or misrouted hand-off between phases
// shows up as a missing bug, a false positive, or an early stop that
// never happens. The TestParallel* tests check the two golden drivers; the
// bug-set and fixed-variant checks here take the rest of the corpus, the
// storage scenario graph included.

// nonGoldenDrivers lists the corpus drivers outside seedGolden.
func nonGoldenDrivers() []string {
	var out []string
	for _, name := range corpus.Names() {
		if _, golden := seedGolden[name]; !golden {
			out = append(out, name)
		}
	}
	return out
}

// TestPipelinedFindsSameBugs: with 4 workers every non-golden corpus
// driver reports exactly its expected bug classes, the same multiset the
// sequential engine reports (TestTable2EveryDriverEveryBug,
// TestSampleDriverBugs, TestStorageScenarioFindsBothBugs).
func TestPipelinedFindsSameBugs(t *testing.T) {
	for _, driver := range nonGoldenDrivers() {
		spec, _ := corpus.Get(driver)
		opts := DefaultOptions()
		opts.Workers = 4
		rep := runDDT(t, driver, corpus.Buggy, opts)
		got := make([]string, 0, len(rep.Bugs))
		for _, b := range rep.Bugs {
			got = append(got, b.Class)
		}
		want := append([]string(nil), spec.ExpectedBugs...)
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s workers=4: bug classes %v, want %v", driver, got, want)
		}
	}
}

// TestPipelinedFixedVariantIsClean: with 4 workers the corrected build of
// every non-golden corpus driver reports nothing.
func TestPipelinedFixedVariantIsClean(t *testing.T) {
	for _, driver := range nonGoldenDrivers() {
		opts := DefaultOptions()
		opts.Workers = 4
		rep := runDDT(t, driver, corpus.Fixed, opts)
		for _, b := range rep.Bugs {
			t.Errorf("%s fixed workers=4: FALSE POSITIVE %s", driver, b.Describe())
		}
	}
}

// TestPipelinedStopAtFirstBug: StopAtFirstBug ends a 4-worker walk of
// each golden driver early. The run still reports a bug, and it explores
// fewer paths than the full sequential walk (seedGolden).
func TestPipelinedStopAtFirstBug(t *testing.T) {
	for driver, want := range seedGolden {
		opts := DefaultOptions()
		opts.Workers = 4
		opts.StopAtFirstBug = true
		rep := runDDT(t, driver, corpus.Buggy, opts)
		if len(rep.Bugs) == 0 {
			t.Errorf("%s: no bug found with StopAtFirstBug", driver)
		}
		if rep.PathsExplored >= want.paths {
			t.Errorf("%s: StopAtFirstBug explored %d paths, full sequential walk %d: the stop did not end the walk early",
				driver, rep.PathsExplored, want.paths)
		}
	}
}
