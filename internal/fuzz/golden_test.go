package fuzz

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/corpus"
)

// campaignGolden pins one single-worker persistent campaign per driver
// (seed 1, fixed exec budget) — the fuzz counterpart of the engine's
// seedGolden. With one worker the campaign is a pure function of its
// configuration, so the crash keys, the exec index each was found at, the
// corpus size, the covered blocks and the instruction total must all repeat
// exactly. Any drift means a change altered what the executor consumes
// from a feed or how it walks the workload, not just how fast it runs.
var campaignGolden = map[string]struct {
	crashes []string // "key@exec" in discovery order
	corpus  int
	covered int
	instr   uint64
}{
	"rtl8029": {
		crashes: []string{
			"resource leak@0x100060@4",
			"memory corruption@0x100150@11",
			"segmentation fault@0x1004b0@12",
			"segmentation fault@0x100610@501",
			"race condition@0x100860@1364",
			"segmentation fault@0x100630@1446",
			"segmentation fault@0x100490@2271",
		},
		corpus: 16, covered: 223, instr: 4084893,
	},
	"amd-pcnet": {
		crashes: []string{"resource leak@0x1000f8@950"},
		corpus:  11, covered: 330, instr: 8547021,
	},
	"ensoniq-audiopci": {
		crashes: []string{
			"segmentation fault@0x1001d8@4",
			"race condition@0x100488@190",
			"segmentation fault@0x1000f0@988",
		},
		corpus: 4, covered: 852, instr: 6935950,
	},
	"promise-ultra133": {
		crashes: []string{"kernel crash@0x100608@36", "memory corruption@0x100588@917"},
		corpus:  23, covered: 318, instr: 11990482,
	},
}

// goldenExecs is the per-campaign exec budget of campaignGolden.
const goldenExecs = 2500

func TestFuzzCampaignGolden(t *testing.T) {
	for _, driver := range []string{"rtl8029", "amd-pcnet", "ensoniq-audiopci", "promise-ultra133"} {
		t.Run(driver, func(t *testing.T) {
			img, err := corpus.Build(driver, corpus.Buggy)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Workers = 1
			cfg.Seed = 1
			cfg.MaxExecs = goldenExecs
			cfg.Persist = true
			rep, err := New(img, cfg).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var crashes []string
			for _, c := range rep.Crashes {
				crashes = append(crashes, fmt.Sprintf("%s@%d", c.Key(), c.Exec))
			}
			want := campaignGolden[driver]
			if !reflect.DeepEqual(crashes, want.crashes) || rep.CorpusSize != want.corpus ||
				rep.BlocksCovered != want.covered || rep.Instructions != want.instr {
				t.Errorf("campaign drifted:\n got crashes=%q corpus=%d covered=%d instr=%d\nwant crashes=%q corpus=%d covered=%d instr=%d",
					crashes, rep.CorpusSize, rep.BlocksCovered, rep.Instructions,
					want.crashes, want.corpus, want.covered, want.instr)
			}
		})
	}
}
