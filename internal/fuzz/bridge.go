package fuzz

import (
	"context"
	"encoding/binary"

	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/trace"
	"repro/internal/vm"
)

// The concolic bridge connects the two exploration modes in both
// directions:
//
//   - engine → fuzzer: a symbolic bug's solved input model is the concrete
//     witness of one interesting path; FromBug/FromTrace serialize it as a
//     feed, seeding the corpus with inputs the fuzzer would need luck to
//     find (solver-derived magic values, exact interrupt instants).
//   - fuzzer → engine: a high-novelty feed is a cheap, deep concrete path;
//     LiftFeed pins the engine's first symbols to the feed's word prefix so
//     symbolic execution forks outward from that path instead of from
//     scratch (the classic concolic "driller" move against path explosion).

// FromBug converts a symbolic-engine bug into a corpus feed: every symbol
// minted on the bug path contributes its solved value, in creation order —
// the same order the concrete executor consumes feed words, since both walk
// the one workload plan (TestInjectionOrderMatchesEngine pins the
// alignment). Values are passed through encodeWord so the executor's clamp
// reproduces the exact witness. Interrupt injections map to the fuzzer's
// IRQ schedule; annotation forks taken on the path bias the feed's fork
// stream toward the alternatives.
func FromBug(b *core.Bug) *Feed {
	f := &Feed{}
	for _, ev := range b.Trace {
		switch ev.Kind {
		case vm.EvNewSym:
			var w [4]byte
			binary.LittleEndian.PutUint32(w[:], encodeWord(ev.Name, b.Model[ev.Sym]))
			f.Data = append(f.Data, w[:]...)
		case vm.EvInterrupt:
			if len(f.IRQ) < maxIRQLen {
				f.IRQ = append(f.IRQ, ev.Seq)
			}
		case vm.EvAltFork:
			if len(f.Forks) < maxForkLen {
				f.Forks = append(f.Forks, 1)
			}
		}
	}
	return f
}

// FromTrace converts a saved executable trace into a corpus feed, using the
// trace's recorded solved inputs.
func FromTrace(t *trace.File) *Feed {
	f := &Feed{}
	for _, s := range t.Symbols {
		var w [4]byte
		// Recorded names carry a "#seq" suffix; encodeWord matches prefixes.
		binary.LittleEndian.PutUint32(w[:], encodeWord(s.Name, s.Value))
		f.Data = append(f.Data, w[:]...)
	}
	for _, r := range t.EventsOf(vm.EvInterrupt) {
		if len(f.IRQ) < maxIRQLen {
			f.IRQ = append(f.IRQ, r.Seq)
		}
	}
	for range t.EventsOf(vm.EvAltFork) {
		if len(f.Forks) < maxForkLen {
			f.Forks = append(f.Forks, 1)
		}
	}
	return f
}

// LiftFeed turns a fuzz feed into a core.Options.SymbolSeed: the first
// `words` symbols minted on each engine path are pinned to the feed's word
// prefix. words <= 0 pins half the feed (leaving the tail symbolic is what
// lets the engine fork away from the concrete path).
func LiftFeed(f *Feed, words int) func(idx uint64, name string, origin expr.Origin) (uint32, bool) {
	if words <= 0 {
		words = len(f.Data) / 8
		if words == 0 {
			words = 1
		}
	}
	data := append([]byte(nil), f.Data...)
	return func(idx uint64, name string, origin expr.Origin) (uint32, bool) {
		if idx >= uint64(words) || int(idx)*4 >= len(data) {
			return 0, false
		}
		var w [4]byte
		copy(w[:], data[idx*4:])
		return clampWord(name, origin, binary.LittleEndian.Uint32(w[:])), true
	}
}

// HybridReport is the outcome of one hybrid concolic campaign.
type HybridReport struct {
	// Symbolic is the initial engine run's report.
	Symbolic *core.Report
	// Fuzz is the fuzzing campaign's report (seeded from Symbolic's bugs).
	Fuzz *Report
	// Lifted counts fuzz feeds lifted back into symbolic boot states.
	Lifted int
	// LiftedBugs are engine bugs found only from lifted states (dedup'd
	// against the initial symbolic run).
	LiftedBugs []*core.Bug
}

// TotalBugKeys counts distinct bug/crash identities across all modes.
func (h *HybridReport) TotalBugKeys() int {
	keys := make(map[string]bool)
	for _, b := range h.Symbolic.Bugs {
		keys[b.Key()] = true
	}
	for _, b := range h.LiftedBugs {
		keys[b.Key()] = true
	}
	for _, c := range h.Fuzz.Crashes {
		keys[c.Key()] = true
	}
	return len(keys)
}

// Hybrid runs the two-way concolic loop: a symbolic engine pass whose bug
// models seed the fuzz corpus, a fuzzing campaign, then symbolic passes
// forked from the liftTop highest-gain fuzz feeds. All three share one
// coverage map, so the combined coverage-over-time series is directly
// comparable with either mode alone. ctx cancels whichever stage is in
// flight; the report covers the work completed so far.
func Hybrid(ctx context.Context, img *binimg.Image, fcfg Config, eopts core.Options, liftTop int) (*HybridReport, error) {
	fz := New(img, fcfg)

	eopts.Coverage = fz.Cov
	eng := core.NewEngine(img, eopts)
	srep, err := eng.TestDriver(ctx)
	if err != nil {
		return nil, err
	}
	for _, b := range srep.Bugs {
		fz.AddSeed(FromBug(b))
	}
	// Keep the shared series on one time axis: the fuzz fleet's instruction
	// counter continues where the symbolic pass ended. (Lifted engine runs
	// below report their own small local times; the recorder's monotonic
	// clamp pins those onto the tail of the axis.)
	fz.steps.Store(srep.Instructions)

	frep, runErr := fz.Run(ctx)
	if runErr != nil && frep == nil {
		return nil, runErr
	}
	// A post-campaign failure (corpus persistence) must not discard the
	// completed report; it is returned alongside the full result.

	h := &HybridReport{Symbolic: srep, Fuzz: frep}
	seen := make(map[string]bool)
	for _, b := range srep.Bugs {
		seen[b.Key()] = true
	}
	// Lift candidates: highest-gain corpus feeds first. Under a shared
	// coverage map the symbolic pass may have pre-covered everything the
	// fuzzer touched (empty corpus); crash feeds are then the interesting
	// concrete paths to fork from.
	candidates := fz.Corpus().Snapshot()
	for _, c := range frep.Crashes {
		candidates = append(candidates, c.Feed)
	}
	for _, feed := range candidates {
		if h.Lifted >= liftTop {
			break
		}
		h.Lifted++
		lopts := eopts // Coverage already points at the shared fz.Cov
		lopts.SymbolSeed = LiftFeed(feed, 0)
		leng := core.NewEngine(img, lopts)
		lrep, err := leng.TestDriver(ctx)
		if err != nil {
			continue
		}
		for _, b := range lrep.Bugs {
			if !seen[b.Key()] {
				seen[b.Key()] = true
				h.LiftedBugs = append(h.LiftedBugs, b)
			}
		}
	}
	return h, runErr
}
