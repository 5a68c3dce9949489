package core

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/kernel"
)

// The promise-ultra133 storage driver is the scenario-graph corpus entry:
// its two planted bugs are reachable only through behaviours the linear
// workload cannot express or the pre-fix engine could not execute.
//
//   - "memory corruption": the completion DPC writes through a request
//     block freed on IRP_MN_SURPRISE_REMOVAL — needs the PnP branch of
//     the scenario graph (ISR → SurpriseRemoval → DPC).
//   - "kernel crash": the statistics DPC (always queued SECOND by the
//     ISR) releases its spinlock to PASSIVE_LEVEL. Reaching it requires
//     the drain to pop PAST the first pending DPC, so this assertion is
//     the regression tripwire for the old one-shot drainDPCs.

func storageBugClasses(t *testing.T, rep *Report) []string {
	t.Helper()
	got := make([]string, 0, len(rep.Bugs))
	seen := map[string]bool{}
	for _, b := range rep.Bugs {
		if !seen[b.Class] {
			seen[b.Class] = true
			got = append(got, b.Class)
		}
	}
	sort.Strings(got)
	return got
}

// TestStorageScenarioFindsBothBugs: the barriered engine walks the PnP
// scenario graph and finds exactly the two planted bugs. The "kernel
// crash" half FAILS if drainDPCs regresses to one-shot (it lives in the
// second queued DPC); the "memory corruption" half fails if the
// surprise-removal path is unreachable.
func TestStorageScenarioFindsBothBugs(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		opts := DefaultOptions()
		rep := runDDT(t, "promise-ultra133", corpus.Buggy, opts)
		want := []string{"kernel crash", "memory corruption"}
		if got := storageBugClasses(t, rep); !reflect.DeepEqual(got, want) {
			t.Fatalf("bug classes = %v, want %v\n%s", got, want, rep)
		}
	})
}

// TestStorageScenarioFixedIsClean: the corrected variant survives the
// full scenario graph with zero reports (no false positives from the
// removal/power machinery itself).
func TestStorageScenarioFixedIsClean(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		opts := DefaultOptions()
		rep := runDDT(t, "promise-ultra133", corpus.Fixed, opts)
		if len(rep.Bugs) != 0 {
			t.Fatalf("fixed promise-ultra133 reported %d bug(s):\n%s", len(rep.Bugs), rep)
		}
	})
}

// TestStorageScenarioLinearOverride: Options.Scenario = ScenarioLinear
// forces the classic straight-line plan on a storage driver. The drain
// tripwire ("kernel crash") is still reachable — Read/Write/ISR/DPC are
// all in the linear plan — but the removal race is not, because no
// linear phase ever yanks the device.
func TestStorageScenarioLinearOverride(t *testing.T) {
	opts := DefaultOptions()
	opts.Scenario = ScenarioLinear
	rep := runDDT(t, "promise-ultra133", corpus.Buggy, opts)
	got := classSet(rep)
	if got["kernel crash"] == 0 {
		t.Errorf("linear scenario lost the DPC-drain bug:\n%s", rep)
	}
	if got["memory corruption"] != 0 {
		t.Errorf("linear scenario found the removal race without a removal phase:\n%s", rep)
	}
}

// TestStorageScenarioDeterministic: two runs over the graph are
// bit-identical — the scenario walker preserves the engine's determinism
// contract.
func TestStorageScenarioDeterministic(t *testing.T) {
	opts := DefaultOptions()
	a := runDDT(t, "promise-ultra133", corpus.Buggy, opts)
	b := runDDT(t, "promise-ultra133", corpus.Buggy, opts)
	if a.PathsExplored != b.PathsExplored || a.Instructions != b.Instructions ||
		a.StatesForked != b.StatesForked || a.SolverQueries != b.SolverQueries {
		t.Errorf("runs diverged: paths %d/%d instr %d/%d forks %d/%d queries %d/%d",
			a.PathsExplored, b.PathsExplored, a.Instructions, b.Instructions,
			a.StatesForked, b.StatesForked, a.SolverQueries, b.SolverQueries)
	}
	if !reflect.DeepEqual(sortedBugKeys(a), sortedBugKeys(b)) {
		t.Errorf("bug sets diverged: %v vs %v", sortedBugKeys(a), sortedBugKeys(b))
	}
}

// TestInterruptBudgetAccrues: unit contract of the path-global interrupt
// budget. The count lives on the path's KState and accumulates — every
// kernel.InjectInterrupt charges one — and intrBudgetLeft turns false
// exactly at MaxIntrInjections, including across a fork (the child
// inherits the parent's spent budget).
func TestInterruptBudgetAccrues(t *testing.T) {
	img, err := corpus.Build("amd-pcnet", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxIntrInjections = 2
	e := NewEngine(img, opts)

	s := e.NewBootState()
	if !e.intrBudgetLeft(s) {
		t.Fatal("fresh state has no budget")
	}
	e.K.InjectInterrupt(s)
	if !e.intrBudgetLeft(s) {
		t.Fatal("budget exhausted after 1 of 2 charges")
	}
	e.K.InjectInterrupt(s)
	if e.intrBudgetLeft(s) {
		t.Fatal("budget not exhausted after 2 of 2 charges")
	}
	// A later phase must see the spent budget, not a fresh one: the count
	// survives a fork, and charging the child must not refund the parent.
	child := e.M.ForkState(s)
	if e.intrBudgetLeft(child) {
		t.Fatal("fork refunded the interrupt budget (per-phase reset regression)")
	}
	e.K.InjectInterrupt(child)
	if got := kernel.Of(s).Interrupts; got != 2 {
		t.Fatalf("charging the child changed the parent's count to %d", got)
	}

	// Budget 0 means zero injections even for a never-charged state.
	e.Opts.MaxIntrInjections = 0
	if e.intrBudgetLeft(e.NewBootState()) {
		t.Fatal("MaxIntrInjections=0 still grants an injection")
	}
}

// TestInterruptBudgetBindsAcrossPhases: behavioural half of the budget
// fix. The old code reset the counter at every phase entry, so any
// budget >= 1 explored the same state space; path-global accounting
// makes the explored frontier strictly monotone in the budget, and
// budget 0 identical to disabling symbolic interrupts outright.
func TestInterruptBudgetBindsAcrossPhases(t *testing.T) {
	run := func(budget uint64, symIntr bool) *Report {
		opts := DefaultOptions()
		opts.MaxIntrInjections = budget
		opts.SymbolicInterrupts = symIntr
		return runDDT(t, "amd-pcnet", corpus.Buggy, opts)
	}
	off := run(2, false)
	b0 := run(0, true)
	b1 := run(1, true)
	b2 := run(2, true)

	if b0.PathsExplored != off.PathsExplored || b0.Instructions != off.Instructions {
		t.Errorf("budget 0 explored %d paths / %d instr, interrupts-off %d / %d — not equivalent",
			b0.PathsExplored, b0.Instructions, off.PathsExplored, off.Instructions)
	}
	if b1.PathsExplored <= b0.PathsExplored {
		t.Errorf("budget 1 (%d paths) not above budget 0 (%d)", b1.PathsExplored, b0.PathsExplored)
	}
	// The pre-fix per-phase reset made budgets 1 and 2 identical (each
	// phase saw a freshly-assigned count of 1). Path-global accounting
	// must separate them.
	if b2.PathsExplored <= b1.PathsExplored {
		t.Errorf("budget 2 (%d paths) not above budget 1 (%d) — per-phase reset regression",
			b2.PathsExplored, b1.PathsExplored)
	}
}
