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
// FromBug feed is replayed through a fresh executor; whenever the replay
// hits the same fault (the bug's class, fault PC and entry), the crash key
// must equal the bug key. A replay that crashes elsewhere found another
// bug and is skipped (ensoniq-audiopci has one: its feed reaches a second
// segmentation fault first). The check must cover at least one fault
// outside driver text (a return to ExitAddr with a spinlock held), where
// the site falls back to the path's last block in both modes.
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
			res := NewExecutor(img, nil, DefaultOptions()).Run(FromBug(b))
			c := res.Crash
			if c == nil || c.Class != b.Class || c.PC != b.Fault.PC || c.Entry != b.Entry {
				continue
			}
			compared++
			if pc := b.Fault.PC; pc < isa.ImageBase || pc >= isa.ImageBase+uint32(len(img.Text)) {
				outside++
			}
			if got, want := c.Key(), b.Key(); got != want {
				t.Errorf("%s: replayed crash key %s, engine bug key %s (fault pc %#x)", driver, got, want, b.Fault.PC)
			}
		}
	}
	if compared == 0 || outside == 0 {
		t.Fatalf("compared %d replayed bugs, %d with a fault outside driver text; want both > 0", compared, outside)
	}
	t.Logf("%d replayed bugs keyed alike, %d with a fault outside driver text", compared, outside)
}
