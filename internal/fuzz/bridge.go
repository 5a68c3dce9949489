package fuzz

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/vm"
)

// The concolic bridge converts inputs between the two exploration modes in
// both directions:
//
//   - engine → fuzzer: a symbolic bug's solved input model is the concrete
//     witness of one interesting path; FromBug serializes it as a feed
//     (ddtd attaches these feeds to symbolic findings as reproducers).
//   - fuzzer → engine: LiftFeed pins the engine's first symbols to a feed's
//     word prefix, so a symbolic run follows that concrete path and forks
//     outward from it.

// FromBug converts a symbolic-engine bug into a corpus feed: every symbol
// minted on the bug path contributes its solved value, in creation order —
// the same order the concrete executor consumes feed words, since both walk
// the one workload plan (TestInjectionOrderMatchesEngine pins the
// alignment). Values are passed through encodeWord so the executor's clamp
// reproduces the exact witness. Interrupt injections map to the fuzzer's
// IRQ schedule. The fork stream is exactly the executor's, in trace order:
// a byte per annotation decision (1 on the alternative's side, 0 on the
// primary's), and for each scenario-edge choice the bits route reads.
func FromBug(b *core.Bug) *Feed {
	f := &Feed{}
	fork := func(bit byte) {
		if len(f.Forks) < maxForkLen {
			f.Forks = append(f.Forks, bit)
		}
	}
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
			if ev.Forked {
				fork(1)
			} else {
				fork(0)
			}
		case vm.EvRoute:
			// Edge k of n: route reads a bit per edge from the last down
			// to the second and takes the first set one, edge 0 otherwise.
			k := int64(ev.Addr)
			for j := int64(ev.Size) - 1; j > k; j-- {
				fork(0)
			}
			if k > 0 {
				fork(1)
			}
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
