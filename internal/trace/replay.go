package trace

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/binimg"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/fuzz"
	"repro/internal/vm"
)

// Result reports the outcome of replaying a trace.
type Result struct {
	// Reproduced is true when the replay hit the bug the trace records:
	// its finding key (class and fault site) equals the trace's.
	Reproduced bool
	// FaultClass / FaultPC / FaultMsg describe what the replay actually hit.
	FaultClass string
	FaultPC    uint32
	FaultMsg   string
	// Steps is the number of instructions executed.
	Steps uint64
	// Divergences lists sanity-check mismatches observed along the way
	// (empty on a clean reproduction).
	Divergences []string
}

func (r *Result) String() string {
	if r.Reproduced {
		return fmt.Sprintf("reproduced: [%s] %s at pc %#x after %d instructions",
			r.FaultClass, r.FaultMsg, r.FaultPC, r.Steps)
	}
	return fmt.Sprintf("NOT reproduced (got class %q at pc %#x, %d divergences)",
		r.FaultClass, r.FaultPC, len(r.Divergences))
}

// Replay re-executes the trace against the driver image on the fuzz
// executor: the trace converts to a feed (fuzz.FromBug) whose words are the
// recorded concrete inputs, whose fork stream is every recorded annotation
// and scenario-edge decision, and whose interrupt schedule is the recorded
// injection instants. Every value is concrete, so execution is
// deterministic; the replay succeeds when it hits the recorded bug again
// (§3.5's irrefutable evidence).
func Replay(f *File, img *binimg.Image) (*Result, error) {
	if img.Name != f.Driver {
		return nil, fmt.Errorf("trace: image is %q but trace was recorded on %q", img.Name, f.Driver)
	}
	bug := &core.Bug{Model: make(expr.Assignment, len(f.Symbols))}
	for _, s := range f.Symbols {
		bug.Model[expr.SymID(s.ID)] = s.Value
	}
	for _, r := range f.Events {
		bug.Trace = append(bug.Trace, vm.Event{
			Kind: vm.EventKind(r.Kind), Seq: r.Seq, PC: r.PC, Addr: r.Addr,
			Size: r.Size, Write: r.Write, Sym: expr.SymID(r.Sym),
			Taken: r.Taken, Forked: r.Forked, Name: r.Name,
		})
	}
	// The executor runs the recording's plan under the engine's bounds, not
	// its own tighter fuzzing defaults: a path the engine walked must not
	// replay into a kill or a loop report the engine never saw.
	def := core.DefaultOptions()
	opts := fuzz.DefaultOptions()
	opts.Annotations = f.Annotations
	opts.Registry = f.Registry
	opts.Scenario = f.Scenario
	opts.MaxStepsPerEntry = cmp.Or(f.MaxStepsPerPath, def.MaxStepsPerPath)
	opts.LoopThreshold = cmp.Or(f.LoopThreshold, def.LoopThreshold)
	ex := fuzz.NewExecutor(img, nil, opts).RunTraced(fuzz.FromBug(bug))

	res := &Result{Steps: ex.Steps}
	if c := ex.Crash; c != nil {
		res.FaultClass, res.FaultPC, res.FaultMsg = c.RawClass, c.PC, c.Msg
		res.Reproduced = c.Key() == campaign.FindingKey(f.Bug.Class, f.Bug.Site)
	}
	if got, want := entryChain(ex.Trace.Path()), entryChain(bug.Trace); !slices.Equal(got, want) {
		res.Divergences = append(res.Divergences, fmt.Sprintf("entry chain %v, recorded %v", got, want))
	}
	return res, nil
}

// entryChain is a path's sequence of entry invocations and interrupt
// injections.
func entryChain(events []vm.Event) []string {
	var chain []string
	for _, ev := range events {
		switch ev.Kind {
		case vm.EvEntry:
			chain = append(chain, ev.Name)
		case vm.EvInterrupt:
			chain = append(chain, "interrupt")
		}
	}
	return chain
}
