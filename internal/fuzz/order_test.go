package fuzz

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/expr"
	"repro/internal/vm"
)

// TestInjectionOrderMatchesEngine: the concolic bridge maps feed words to
// engine symbols by position (FromBug writes one word per EvNewSym, LiftFeed
// pins the k-th minted symbol to word k), so the executor must consume feed
// words in exactly the order the engine mints symbols. For every bug the
// sequential engine finds on each corpus driver, the bug's FromBug feed must
// take the same entry chain in the executor — the same entries, with each
// interrupt landing between the same two (an interrupt the engine injects
// at an entry's first instruction must not fire at the previous entry's
// exit, which shares its instruction count) — and the k-th consumed word
// must answer the trace's k-th EvNewSym: the same symbol name when the
// executor asked through its symbol policy, a hardware symbol when a device
// read took it.
func TestInjectionOrderMatchesEngine(t *testing.T) {
	for _, driver := range corpus.Names() {
		t.Run(driver, func(t *testing.T) {
			img, err := corpus.Build(driver, corpus.Buggy)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.NewEngine(img, core.DefaultOptions()).TestDriver(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range rep.Bugs {
				var minted []string
				for _, ev := range b.Trace {
					if ev.Kind == vm.EvNewSym {
						minted = append(minted, ev.Name)
					}
				}
				ex := NewExecutor(img, nil, DefaultOptions())
				asked := make(map[int]string)
				policy := ex.k.SymbolPolicy
				ex.k.SymbolPolicy = func(s *vm.State, name string, origin expr.Origin) *expr.Expr {
					asked[ex.reader.words] = name
					return policy(s, name, origin)
				}
				res := ex.RunTraced(FromBug(b))
				if got, want := entryChain(res.Trace.Path()), entryChain(b.Trace); !reflect.DeepEqual(got, want) {
					t.Fatalf("bug %s: executor took entry chain %v, engine %v", b.Key(), got, want)
				}
				for k := 0; k < ex.reader.words && k < len(minted); k++ {
					got, ok := asked[k]
					switch {
					case !ok && !strings.HasPrefix(minted[k], "hw_"):
						t.Fatalf("bug %s: feed word %d taken by a device read, engine minted %q there",
							b.Key(), k, minted[k])
					case ok && got != minted[k]:
						t.Fatalf("bug %s: feed word %d answers %q, engine minted %q there",
							b.Key(), k, got, minted[k])
					}
				}
			}
		})
	}
}

// entryChain is the path's sequence of entry invocations and interrupt
// injections.
func entryChain(trace []vm.Event) []string {
	var chain []string
	for _, ev := range trace {
		switch ev.Kind {
		case vm.EvEntry:
			chain = append(chain, ev.Name)
		case vm.EvInterrupt:
			chain = append(chain, "interrupt")
		}
	}
	return chain
}
