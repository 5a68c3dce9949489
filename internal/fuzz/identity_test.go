package fuzz

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/isa"
)

// TestFindingKeyMatchesAcrossModes: one bug has one key in every mode. For
// every bug the sequential engine finds on each corpus driver, the bug's
// FromBug feed is replayed through a fresh executor, and the replay must
// crash with the bug's key. The check must cover at least one fault outside
// driver text (a return to ExitAddr with a spinlock held), where the site
// falls back to the path's last block in both modes.
func TestFindingKeyMatchesAcrossModes(t *testing.T) {
	compared, outside := 0, 0
	for _, driver := range corpus.Names() {
		img, err := corpus.Build(driver, corpus.Buggy)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.NewEngine(img, core.DefaultOptions()).TestDriver(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range rep.Bugs {
			compared++
			if pc := b.Fault.PC; pc < isa.ImageBase || pc >= isa.ImageBase+uint32(len(img.Text)) {
				outside++
			}
			res := NewExecutor(img, nil, DefaultOptions()).Run(FromBug(b))
			if res.Crash == nil {
				t.Errorf("%s: bug %s replayed without a crash", driver, b.Key())
				continue
			}
			if got, want := res.Crash.Key(), b.Key(); got != want {
				t.Errorf("%s: replayed crash key %s, engine bug key %s (fault pc %#x)", driver, got, want, b.Fault.PC)
			}
		}
	}
	if compared == 0 || outside == 0 {
		t.Fatalf("compared %d replayed bugs, %d with a fault outside driver text; want both > 0", compared, outside)
	}
	t.Logf("%d engine bugs replayed, %d with a fault outside driver text", compared, outside)
}
