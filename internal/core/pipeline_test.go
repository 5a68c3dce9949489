package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/vm"
)

// TestPipelinedFindsSameBugs: the acceptance contract of the cross-phase
// pipeline — workers=4 with Pipeline must find exactly the bug set the
// sequential engine finds on the golden drivers. Path count and order are
// schedule-dependent; the bug set is not. (Runs under -race in CI: this is
// also the pipelined engine's race regression test.)
func TestPipelinedFindsSameBugs(t *testing.T) {
	for driver, want := range seedGolden {
		opts := DefaultOptions()
		opts.Workers = 4
		opts.Pipeline = true
		rep := runDDT(t, driver, corpus.Buggy, opts)

		if got := sortedBugKeys(rep); !reflect.DeepEqual(got, want.bugs) {
			t.Errorf("%s pipelined: bug set %v, sequential found %v", driver, got, want.bugs)
		}
		if !rep.Pipelined {
			t.Errorf("%s: report not marked pipelined", driver)
		}
		if rep.Workers != 4 {
			t.Errorf("%s: report workers = %d, want 4", driver, rep.Workers)
		}
	}
}

// TestPipelinedFixedVariantIsClean: zero false positives must survive the
// barrier removal — the corrected variants report nothing.
func TestPipelinedFixedVariantIsClean(t *testing.T) {
	for _, driver := range []string{"rtl8029", "amd-pcnet"} {
		opts := DefaultOptions()
		opts.Workers = 4
		opts.Pipeline = true
		rep := runDDT(t, driver, corpus.Fixed, opts)
		if len(rep.Bugs) != 0 {
			t.Errorf("fixed %s pipelined reported %d bug(s): %v",
				driver, len(rep.Bugs), sortedBugKeys(rep))
		}
	}
}

// TestPipelineIgnoredSequentially: Pipeline with Workers<=1 must stay
// bit-identical to the golden sequential engine — the determinism contract
// says only a real worker pool may dissolve the barriers.
func TestPipelineIgnoredSequentially(t *testing.T) {
	want := seedGolden["amd-pcnet"]
	opts := DefaultOptions()
	opts.Workers = 1
	opts.Pipeline = true
	rep := runDDT(t, "amd-pcnet", corpus.Buggy, opts)
	if got := sortedBugKeys(rep); !reflect.DeepEqual(got, want.bugs) {
		t.Errorf("bug set %v, want %v", got, want.bugs)
	}
	if rep.PathsExplored != want.paths || rep.Instructions != want.instr ||
		rep.StatesForked != want.forks || rep.SolverQueries != want.queries {
		t.Errorf("paths/instr/forks/queries = %d/%d/%d/%d, seed %d/%d/%d/%d",
			rep.PathsExplored, rep.Instructions, rep.StatesForked, rep.SolverQueries,
			want.paths, want.instr, want.forks, want.queries)
	}
	if rep.Pipelined {
		t.Error("sequential run marked pipelined")
	}
}

// TestPipelinedPhaseOrdering asserts the per-path phase-order invariant the
// pipeline must preserve: no state is ever invoked into phase k unless its
// base completed an EARLIER phase successfully (transitively rooting at
// DriverEntry). The engine's test hooks fire under the coordinator lock:
// testOnPathDone when a path retires, testOnSeed when a base is invoked
// into a phase — so a seed whose base has no earlier successful completion
// on record is a barrier-removal ordering bug. One sanctioned exception:
// a drain phase (DPC fixpoint) re-seeds its own successes while they still
// carry pending DPCs, so phase == completed-phase is legal there and only
// there. Runs over both a linear plan (rtl8029) and the storage scenario
// graph (promise-ultra133), where seeds route along graph edges.
func TestPipelinedPhaseOrdering(t *testing.T) {
	for _, driver := range []string{"rtl8029", "promise-ultra133"} {
		t.Run(driver, func(t *testing.T) {
			img, err := corpus.Build(driver, corpus.Buggy)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Workers = 4
			opts.Pipeline = true
			e := NewEngine(img, opts)
			plan := e.phasePlan()
			drain := func(phase int) bool {
				return phase >= 0 && phase < len(plan) && plan[phase].Drain
			}

			type completion struct {
				phase   int
				success bool
			}
			var mu sync.Mutex
			completed := make(map[uint64]completion)
			seeds := 0
			var violations []string

			e.testOnPathDone = func(s *vm.State, phase int, success bool) {
				mu.Lock()
				defer mu.Unlock()
				completed[s.ID] = completion{phase: phase, success: success}
			}
			e.testOnSeed = func(base *vm.State, phase int) {
				mu.Lock()
				defer mu.Unlock()
				seeds++
				if phase == 0 {
					// DriverEntry is seeded from the boot state, which never ran.
					return
				}
				c, ok := completed[base.ID]
				switch {
				case !ok:
					violations = append(violations,
						base.String()+" entered a phase without completing any")
				case !c.success:
					violations = append(violations,
						base.String()+" promoted from a failed path")
				case c.phase == phase && drain(phase):
					// DPC fixpoint re-entry: legal.
				case c.phase >= phase:
					violations = append(violations,
						base.String()+" moved backwards or re-entered its phase")
				}
			}

			rep, err := e.TestDriver(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range violations {
				t.Errorf("phase-ordering violation: %s", v)
			}
			if seeds < 2 {
				t.Fatalf("only %d seed(s) observed — the pipeline never promoted", seeds)
			}
			if len(rep.Bugs) == 0 {
				t.Error("instrumented run found no bugs")
			}
		})
	}
}

// TestPipelinedStorageScenario: the scenario graph survives barrier
// removal — pipelined workers=4 finds exactly the storage driver's two
// planted bugs (the multi-DPC drain crash and the surprise-removal race),
// and the corrected variant stays clean. Runs under -race in CI, which
// makes this the graph seeding/drain re-entry race regression test.
func TestPipelinedStorageScenario(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	opts.Pipeline = true
	rep := runDDT(t, "promise-ultra133", corpus.Buggy, opts)
	want := []string{"kernel crash", "memory corruption"}
	if got := storageBugClasses(t, rep); !reflect.DeepEqual(got, want) {
		t.Errorf("pipelined bug classes = %v, want %v\n%s", got, want, rep)
	}
	if !rep.Pipelined {
		t.Error("report not marked pipelined")
	}

	fixed := runDDT(t, "promise-ultra133", corpus.Fixed, opts)
	if len(fixed.Bugs) != 0 {
		t.Errorf("fixed promise-ultra133 pipelined reported %d bug(s): %v",
			len(fixed.Bugs), sortedBugKeys(fixed))
	}
}

// TestPipelinedReportsPhaseStats: the per-(entry, phase) ledger must
// surface in the report, in workload order, with sane concurrency gauges.
func TestPipelinedReportsPhaseStats(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	opts.Pipeline = true
	rep := runDDT(t, "rtl8029", corpus.Buggy, opts)

	if len(rep.Phases) == 0 {
		t.Fatal("no per-phase stats in the pipelined report")
	}
	if rep.Phases[0].Name != "DriverEntry" {
		t.Errorf("first phase = %q, want DriverEntry", rep.Phases[0].Name)
	}
	totalExited := 0
	for _, p := range rep.Phases {
		totalExited += p.Exited
		if p.Promoted > opts.KeepStates {
			t.Errorf("phase %s promoted %d > KeepStates %d", p.Name, p.Promoted, opts.KeepStates)
		}
		if p.Exited > opts.MaxPathsPerEntry+opts.Workers {
			t.Errorf("phase %s exited %d beyond budget %d (+%d overshoot)",
				p.Name, p.Exited, opts.MaxPathsPerEntry, opts.Workers)
		}
		if p.Succeeded > 0 && p.PeakInFlight == 0 {
			t.Errorf("phase %s succeeded %d paths with zero peak in-flight", p.Name, p.Succeeded)
		}
	}
	if totalExited != rep.PathsExplored {
		t.Errorf("phase ledger exited %d != report paths %d", totalExited, rep.PathsExplored)
	}
}

// TestPipelinedStopAtFirstBug: the early-exit policy must cut the whole
// pipeline, not just one phase.
func TestPipelinedStopAtFirstBug(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 4
	opts.Pipeline = true
	opts.StopAtFirstBug = true
	rep := runDDT(t, "rtl8029", corpus.Buggy, opts)
	if len(rep.Bugs) == 0 {
		t.Fatal("no bug found with StopAtFirstBug")
	}
}
