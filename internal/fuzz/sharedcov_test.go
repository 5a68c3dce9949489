package fuzz

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exerciser"
)

// TestSharedCoverageDoesNotStarveCampaign hands a fuzz campaign a coverage
// map a symbolic pass already filled. The campaign must explore exactly as
// it does on its own map: it judges novelty on its own coverage, so it
// keeps corpus feeds and finds the same crash keys at the same execs. Its
// blocks must still reach the shared map.
func TestSharedCoverageDoesNotStarveCampaign(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(img, core.DefaultOptions())
	if _, err := eng.TestDriver(context.Background()); err != nil {
		t.Fatal(err)
	}
	shared := eng.Cov
	filled := shared.Blocks()
	if filled == 0 {
		t.Fatal("the symbolic pass covered no blocks")
	}

	campaign := func(cov *exerciser.Coverage) (*Fuzzer, *Report) {
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.Seed = 1
		cfg.MaxExecs = 1500
		cfg.Persist = true
		cfg.Coverage = cov
		f := New(img, cfg)
		rep, err := f.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return f, rep
	}
	keys := func(rep *Report) []string {
		var out []string
		for _, c := range rep.Crashes {
			out = append(out, fmt.Sprintf("%s@%d", c.Key(), c.Exec))
		}
		return out
	}

	_, own := campaign(nil)
	f, rep := campaign(shared)
	if rep.CorpusSize == 0 || len(rep.Crashes) == 0 {
		t.Fatalf("campaign on a filled map is starved: %d corpus feeds, %d crash keys", rep.CorpusSize, len(rep.Crashes))
	}
	if rep.CorpusSize != own.CorpusSize || !reflect.DeepEqual(keys(rep), keys(own)) {
		t.Errorf("a filled map changed the campaign:\n got corpus=%d crashes=%q\nwant corpus=%d crashes=%q",
			rep.CorpusSize, keys(rep), own.CorpusSize, keys(own))
	}
	for _, pc := range f.Cov.CoveredBlocks() {
		if !shared.Covered(pc) {
			t.Fatalf("campaign block %#x missing from the shared map", pc)
		}
	}
	if shared.Blocks() < filled {
		t.Errorf("shared map shrank from %d to %d blocks", filled, shared.Blocks())
	}
}
