package core

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/exerciser"
)

// seedGolden pins the exact results of the engine. A run must reproduce
// them bit-for-bit: same bug set, same path count, same coverage, same
// fork/instruction/query totals and solver cache hits, and no cache
// evictions. Any drift here means a change altered sequential semantics,
// not just structure. series and last
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
	hits    uint64
	series  int
	last    exerciser.CoveragePoint
}{
	"amd-pcnet": {
		bugs:  []string{"resource leak@0x1000f8", "resource leak@0x100298"},
		paths: 91, covered: 339, static: 413, forks: 91, instr: 4729, queries: 102, hits: 8,
		series: 339, last: exerciser.CoveragePoint{Instructions: 4678, Blocks: 339},
	},
	"rtl8029": {
		bugs: []string{
			"memory corruption@0x100150",
			"race condition@0x100860",
			"resource leak@0x100060",
			"segmentation fault@0x1004b0",
			"segmentation fault@0x100630",
		},
		paths: 473, covered: 222, static: 265, forks: 652, instr: 12734, queries: 1229, hits: 151,
		series: 222, last: exerciser.CoveragePoint{Instructions: 11665, Blocks: 222},
	},
}

// otherGolden pins the sequential engine's results on the corpus drivers
// outside seedGolden: bug keys, paths, coverage, the fork, instruction
// and query totals and the solver cache hits, with no cache evictions.
var otherGolden = map[string]struct {
	bugs    []string
	paths   int
	covered int
	static  int
	forks   uint64
	instr   uint64
	queries uint64
	hits    uint64
}{
	"intel-pro1000": {
		bugs:  []string{"resource leak@0x100170"},
		paths: 131, covered: 2119, static: 2638, forks: 131, instr: 17308, queries: 161, hits: 12,
	},
	"intel-pro100": {
		bugs:  []string{"kernel crash@0x100588"},
		paths: 130, covered: 459, static: 566, forks: 132, instr: 9708, queries: 255, hits: 14,
	},
	"intel-ac97": {
		bugs:  []string{"race condition@0x100388"},
		paths: 73, covered: 510, static: 630, forks: 82, instr: 4251, queries: 63, hits: 1,
	},
	"ensoniq-audiopci": {
		bugs: []string{
			"race condition@0x100488",
			"race condition@0x1004e0",
			"segmentation fault@0x1000f0",
			"segmentation fault@0x1001d8",
		},
		paths: 195, covered: 855, static: 1064, forks: 253, instr: 6351, queries: 308, hits: 1,
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
		paths: 14, covered: 140, static: 175, forks: 21, instr: 632, queries: 35, hits: 2,
	},
	"ddk-sample-synthetic": {
		bugs: []string{
			"deadlock@0x100180",
			"kernel crash@0x1004a0",
			"kernel crash@0x1004c8",
			"kernel crash@0x1004f8",
			"kernel crash@0x100528",
		},
		paths: 27, covered: 152, static: 182, forks: 35, instr: 778, queries: 49, hits: 0,
	},
	"promise-ultra133": {
		bugs:  []string{"kernel crash@0x100608", "memory corruption@0x100588"},
		paths: 95, covered: 299, static: 373, forks: 105, instr: 6467, queries: 90, hits: 2,
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

// TestSequentialMatchesSeedEngine: the engine reproduces seedGolden on the
// golden drivers.
func TestSequentialMatchesSeedEngine(t *testing.T) {
	for driver, want := range seedGolden {
		rep := runDDT(t, driver, corpus.Buggy, DefaultOptions())

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
		if rep.SolverCacheHits != want.hits {
			t.Errorf("%s: solver cache hits = %d, seed %d", driver, rep.SolverCacheHits, want.hits)
		}
		if rep.SolverCacheEvictions != 0 {
			t.Errorf("%s: solver cache evicted %d results, want 0", driver, rep.SolverCacheEvictions)
		}
		if n := len(rep.CoverageSeries); n != want.series || rep.CoverageSeries[n-1] != want.last {
			t.Errorf("%s: coverage series of %d points ending %v, seed %d ending %v",
				driver, n, rep.CoverageSeries[n-1], want.series, want.last)
		}
	}
}

// TestSequentialMatchesOtherGolden: the engine reproduces otherGolden on
// every corpus driver outside seedGolden, and the two tables together
// cover the corpus.
func TestSequentialMatchesOtherGolden(t *testing.T) {
	if n := len(seedGolden) + len(otherGolden); n != len(corpus.Names()) {
		t.Errorf("seedGolden and otherGolden pin %d drivers, corpus has %d", n, len(corpus.Names()))
	}
	for driver, want := range otherGolden {
		rep := runDDT(t, driver, corpus.Buggy, DefaultOptions())

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
		if rep.SolverCacheHits != want.hits {
			t.Errorf("%s: solver cache hits = %d, pinned %d", driver, rep.SolverCacheHits, want.hits)
		}
		if rep.SolverCacheEvictions != 0 {
			t.Errorf("%s: solver cache evicted %d results, want 0", driver, rep.SolverCacheEvictions)
		}
	}
}

// TestPhaseLedgerSumsToPaths: on every corpus driver the report's
// per-phase ledger starts at DriverEntry, no phase exceeds its path
// budget, and the Exited column accounts for every explored path exactly
// once.
func TestPhaseLedgerSumsToPaths(t *testing.T) {
	for _, driver := range corpus.Names() {
		opts := DefaultOptions()
		rep := runDDT(t, driver, corpus.Buggy, opts)
		if len(rep.Phases) == 0 || rep.Phases[0].Name != "DriverEntry" {
			t.Errorf("%s: phases %+v do not start at DriverEntry", driver, rep.Phases)
			continue
		}
		exited := 0
		for _, p := range rep.Phases {
			exited += p.Exited
			if p.Exited > opts.MaxPathsPerEntry {
				t.Errorf("%s: phase %s exited %d paths, budget %d",
					driver, p.Name, p.Exited, opts.MaxPathsPerEntry)
			}
		}
		if exited != rep.PathsExplored {
			t.Errorf("%s: phase ledger exited %d != report paths %d",
				driver, exited, rep.PathsExplored)
		}
	}
}
