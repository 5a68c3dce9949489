package fuzz

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
)

// TestLazyTraceRematerialization is the trace-on-demand contract: for every
// corpus driver, in every executor configuration (cold vs persistent,
// superblocks on vs off), a lazy executor's RunTraced materializes — by
// exact cold re-execution — a trace chain event-for-event identical to what
// an eager executor records for the same feed, while the lazy fast path
// itself stays trace-free (ExecResult.Trace nil) and bit-identical on every
// other result field. It also proves the traced re-execution does not
// poison the lazy executor's snapshot fabric: re-running the feed after
// RunTraced still resumes trace-free with identical results.
func TestLazyTraceRematerialization(t *testing.T) {
	for _, name := range corpus.Names() {
		t.Run(name, func(t *testing.T) {
			for _, persist := range []bool{false, true} {
				for _, noSB := range []bool{false, true} {
					lazyOpts := DefaultOptions()
					lazyOpts.Persist = persist
					lazyOpts.NoSuperblocks = noSB
					if !lazyOpts.LazyTrace {
						t.Fatal("DefaultOptions no longer defaults to lazy tracing")
					}
					eagOpts := eagerOptions()
					eagOpts.Persist = persist
					eagOpts.NoSuperblocks = noSB

					img, err := corpus.Build(name, corpus.Buggy)
					if err != nil {
						t.Fatal(err)
					}
					lazy := NewExecutor(img, nil, lazyOpts)
					eager := NewExecutor(img, nil, eagOpts)

					mu := NewMutator(11)
					for i, f := range persistFeeds(mu, 10) {
						tag := fmt.Sprintf("persist=%v nosb=%v feed %d", persist, noSB, i)
						lr := lazy.Run(f)
						if lr.Trace != nil {
							t.Fatalf("%s: lazy execution built a trace chain", tag)
						}
						eg := eager.Run(f)
						tr := lazy.RunTraced(f)
						// The rematerialized chain (and every other field)
						// must match the eager execution exactly.
						compareExec(t, tag+" retraced", tr, eg)
						// The trace-free run agrees with both on everything
						// but the (absent) chain.
						if lr.Steps != eg.Steps || lr.Blocks != eg.Blocks ||
							(lr.Crash == nil) != (eg.Crash == nil) {
							t.Fatalf("%s: lazy run diverged: steps %d vs %d, blocks %d vs %d",
								tag, lr.Steps, eg.Steps, lr.Blocks, eg.Blocks)
						}
						// RunTraced must not have leaked traced states into
						// the trace-free fabric: the next lazy run of the
						// same feed is still trace-free and identical.
						again := lazy.Run(f)
						if again.Trace != nil {
							t.Fatalf("%s: traced re-execution poisoned the fabric", tag)
						}
						if again.Steps != lr.Steps || again.Blocks != lr.Blocks {
							t.Fatalf("%s: post-RunTraced run diverged (steps %d vs %d)",
								tag, again.Steps, lr.Steps)
						}
					}
				}
			}
		})
	}
}

// TestLazyTraceEagerRunTracedPassthrough pins the degenerate half of the
// RunTraced contract: on an eager executor it is plain Run (no snapshot
// bypass, no machine reconfiguration).
func TestLazyTraceEagerRunTracedPassthrough(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(img, nil, eagerOptions())
	f := &Feed{Data: make([]byte, 64)}
	a := ex.Run(f)
	b := ex.RunTraced(f)
	compareExec(t, "eager passthrough", a, b)
	if b.Trace == nil {
		t.Fatal("eager RunTraced returned no trace")
	}
}
