package trace

import (
	"fmt"

	"repro/internal/annot"
	"repro/internal/binimg"
	"repro/internal/checkers"
	"repro/internal/expr"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/solver"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Result reports the outcome of replaying a trace.
type Result struct {
	// Reproduced is true when the replay hit the same bug (class and
	// program counter) the trace records.
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

// replayer drives a concrete re-execution from a trace's recorded inputs.
type replayer struct {
	file *File
	m    *vm.Machine
	k    *kernel.Kernel
	mem  *checkers.MemoryChecker
	leak checkers.LeakChecker

	symQueue  []SymbolRecord
	intrQueue []Record
	altQueue  []Record
	res       *Result
}

// Replay re-executes the trace against the driver image: symbolic injection
// points receive the recorded concrete inputs, annotation forks follow the
// recorded outcome, and interrupts fire at the recorded instants. Every
// value is concrete, so execution is deterministic; the replay succeeds when
// the recorded bug fires again at the same location (§3.5's irrefutable
// evidence).
func Replay(f *File, img *binimg.Image) (*Result, error) {
	if img.Name != f.Driver {
		return nil, fmt.Errorf("trace: image is %q but trace was recorded on %q", img.Name, f.Driver)
	}
	r := &replayer{
		file:      f,
		symQueue:  append([]SymbolRecord(nil), f.Symbols...),
		intrQueue: f.EventsOf(vm.EvInterrupt),
		altQueue:  f.EventsOf(vm.EvAltFork),
		res:       &Result{},
	}
	r.m = vm.NewMachine(img, expr.NewSymbolTable(), solver.New())
	r.k = kernel.New(r.m)
	r.mem = checkers.NewMemoryChecker()
	r.mem.Install(r.m)
	// The device's register reads route through the kernel's symbol policy,
	// so the replay feeds the recorded hardware values at the same points.
	dev := hw.New(img.Device)
	dev.FreshSymbol = r.k.FreshSymbol
	dev.Attach(r.m)
	if f.Annotations {
		annot.InstallAll(r.k)
	}
	r.k.SymbolPolicy = r.symbolPolicy
	r.k.ForkPolicy = r.forkPolicy

	if err := r.run(workload.Boot(r.m, img, f.Registry)); err != nil {
		return nil, err
	}
	r.res.Steps = r.m.Steps.Load()
	return r.res, nil
}

func (r *replayer) diverge(format string, args ...any) {
	r.res.Divergences = append(r.res.Divergences, fmt.Sprintf(format, args...))
}

// symbolPolicy feeds recorded concrete inputs at would-be symbolic
// injection points, in creation order.
func (r *replayer) symbolPolicy(s *vm.State, name string, origin expr.Origin) *expr.Expr {
	if len(r.symQueue) == 0 {
		// Past the recorded horizon (e.g. the fault fires before this
		// injection on a diverged run): default to zero.
		r.diverge("symbol %q requested beyond recorded inputs", name)
		return expr.Const(0)
	}
	rec := r.symQueue[0]
	r.symQueue = r.symQueue[1:]
	if rec.Name != "" && name != "" && !samePrefix(rec.Name, name) {
		r.diverge("symbol order mismatch: recorded %q, replay wants %q", rec.Name, name)
	}
	return expr.Const(rec.Value)
}

// samePrefix compares a recorded symbol name ("registry_value#3") with the
// base name at the injection site ("registry_value").
func samePrefix(recorded, base string) bool {
	if len(recorded) < len(base) {
		return recorded == base
	}
	return recorded[:len(base)] == base
}

// forkPolicy steers annotation forks down the recorded outcome: take the
// alternative exactly when the trace recorded an EvAltFork for this API at
// this instruction count.
func (r *replayer) forkPolicy(s *vm.State, api string) bool {
	if len(r.altQueue) == 0 {
		return false
	}
	front := r.altQueue[0]
	if front.Seq == s.ICount && front.Name == api {
		r.altQueue = r.altQueue[1:]
		return true
	}
	return false
}

// maybeInject delivers a recorded interrupt when the replay reaches the
// recorded instant.
func (r *replayer) maybeInject(s *vm.State) {
	if len(r.intrQueue) == 0 {
		return
	}
	front := r.intrQueue[0]
	if front.Seq == s.ICount && front.PC == s.PC {
		r.intrQueue = r.intrQueue[1:]
		if !r.k.InjectInterrupt(s) {
			r.diverge("recorded interrupt at seq %d but no ISR registered", front.Seq)
		}
	}
}

// run executes the recorded entry chain and checks the failure.
func (r *replayer) run(s *vm.State) error {
	plan := workload.Build(r.m.Img, "")
	env := workload.Env{K: r.k, Annotations: r.file.Annotations}
	for idx, entry := range r.file.Entries() {
		// Each recorded entry resolves to its plan node (a DPC entry to the
		// drain node), which prepares the invocation exactly as the live
		// run did.
		i := plan.Index(entry)
		if i < 0 || !plan[i].Applies(s) {
			r.diverge("entry %q unresolvable at step %d", entry, idx)
			return nil
		}
		name, pc, args := plan[i].Enter(env, s)
		if name != entry {
			r.diverge("entry %q resolved to %q at step %d", entry, name, idx)
		}
		r.k.InvokeSym(s, name, pc, args...)
		for s.Status == vm.StatusRunning {
			r.maybeInject(s)
			next, err := r.m.Step(s)
			if err != nil {
				r.record(err)
				return nil
			}
			switch len(next) {
			case 0:
				// terminal
			case 1:
				s = next[0]
			default:
				r.diverge("replay forked at pc %#x (inputs underdetermine the path)", s.PC)
				s = next[0]
			}
			if r.m.Steps.Load() > 5_000_000 {
				r.diverge("replay exceeded instruction budget")
				return nil
			}
		}
		if s.Status != vm.StatusExited {
			r.diverge("entry %q ended with status %v", entry, s.Status)
			return nil
		}
		// Entry-exit checks (leaks fire here, as in the live run).
		status, ok := s.RegConcrete(isa.R0)
		if !ok {
			status = 0
		}
		if err := r.leak.CheckEntryExit(s, entry, status); err != nil {
			r.record(err)
			return nil
		}
		// Reset context the way every walker does between phases.
		ks := kernel.Of(s)
		ks.InDpc = false
		ks.IRQL = kernel.PassiveLevel
		s.Status = vm.StatusRunning
	}
	r.diverge("entry chain completed without reproducing the failure")
	return nil
}

func (r *replayer) record(err error) {
	f, ok := err.(*vm.Fault)
	if !ok {
		r.diverge("non-fault error: %v", err)
		return
	}
	r.res.FaultClass = f.Class
	r.res.FaultPC = f.PC
	r.res.FaultMsg = f.Msg
	// Classification at replay time can differ (e.g. "race condition" vs
	// the raw class); compare the raw location and message family instead.
	r.res.Reproduced = f.PC == r.file.Bug.PC
}
