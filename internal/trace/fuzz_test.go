package trace

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/vm"
)

// fuzzDrivers are the images FuzzTraceReplay replays against: a network
// driver on the linear plan and the storage driver on the scenario graph,
// whose traces carry edge choices.
var fuzzDrivers = []string{"rtl8029", "promise-ultra133"}

// FuzzTraceReplay feeds arbitrary bytes to the trace-file boundary: every
// input either fails to decode or replays to a result, without a panic or
// a hang. A decoded trace naming neither fuzz driver is retargeted to the
// first, so hostile content always reaches the executor, and its recorded
// path bounds are capped at the engine's defaults. The seed corpus
// in testdata/fuzz/FuzzTraceReplay holds real rtl8029 and promise-ultra133
// traces and hostile edits of them (see TestFuzzTraceReplaySeeds).
//
// The seeds are whole traces, so minimizing a new input is slow; cap it:
//
//	go test -run '^$' -fuzz '^FuzzTraceReplay$' -fuzztime 30s -fuzzminimizetime 3s ./internal/trace/
func FuzzTraceReplay(f *testing.F) {
	imgs := make(map[string]*binimg.Image, len(fuzzDrivers))
	for _, d := range fuzzDrivers {
		img, err := corpus.Build(d, corpus.Buggy)
		if err != nil {
			f.Fatal(err)
		}
		imgs[d] = img
	}
	def := core.DefaultOptions()
	f.Add([]byte("not a trace"))
	f.Fuzz(func(t *testing.T, blob []byte) {
		tr, err := Unmarshal(blob)
		if err != nil {
			return
		}
		img, ok := imgs[tr.Driver]
		if !ok {
			img = imgs[fuzzDrivers[0]]
			tr.Driver = img.Name
		}
		// Replay honours the recorded bounds, however large; keep them at
		// the engine's defaults so every input replays in milliseconds.
		tr.MaxStepsPerPath = min(tr.MaxStepsPerPath, def.MaxStepsPerPath)
		tr.LoopThreshold = min(tr.LoopThreshold, def.LoopThreshold)
		res, err := Replay(tr, img)
		if err != nil {
			t.Fatalf("replay of a trace retargeted to %s: %v", img.Name, err)
		}
		_ = res.String()
	})
}

var updateSeeds = flag.Bool("update-seeds", false, "rewrite FuzzTraceReplay's seed corpus")

// TestFuzzTraceReplaySeeds keeps FuzzTraceReplay's seed corpus decodable
// as current-version traces, so the seeds exercise Replay rather than the
// decoder's version check. With -update-seeds it rewrites them from fresh
// engine runs: a real trace per fuzz driver, and hostile edits — an edge
// index at or past its edge count, an edge count of 0, 10k annotation
// decisions, and interrupt instants in descending order.
func TestFuzzTraceReplaySeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzTraceReplay")
	if *updateSeeds {
		writeSeeds(t, dir)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no seeds in %s (%v)", dir, err)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(b), "\n", 3)
		if len(lines) < 2 || lines[0] != "go test fuzz v1" || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a []byte fuzz seed", name)
		}
		blob, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Unmarshal([]byte(blob)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// writeSeeds regenerates the seed corpus from the first bug each fuzz
// driver's engine run reports (the storage driver's first bug past a
// scenario-edge choice).
func writeSeeds(t *testing.T, dir string) {
	seeds := make(map[string]*File)
	for _, d := range fuzzDrivers {
		e, bugs := findBugs(t, d)
		for _, b := range bugs {
			f := New(b, d, true, e.EffectiveRegistry())
			if d == "rtl8029" || len(f.EventsOf(vm.EvRoute)) > 0 {
				seeds[d] = f
				break
			}
		}
		if seeds[d] == nil {
			t.Fatalf("%s: no bug to seed from", d)
		}
	}
	edit := func(f *File, fn func(*File)) *File {
		c := *f
		c.Events = append([]Record(nil), f.Events...)
		fn(&c)
		return &c
	}
	routes := func(f *File, fn func(*Record)) {
		for i := range f.Events {
			if vm.EventKind(f.Events[i].Kind) == vm.EvRoute {
				fn(&f.Events[i])
			}
		}
	}
	storage := seeds["promise-ultra133"]
	seeds["edge-index-past-count"] = edit(storage, func(f *File) {
		routes(f, func(r *Record) { r.Addr = uint32(r.Size) + 5 })
	})
	seeds["edge-count-zero"] = edit(storage, func(f *File) {
		routes(f, func(r *Record) { r.Size = 0 })
	})
	seeds["10k-decisions"] = edit(seeds["rtl8029"], func(f *File) {
		var evs []Record
		for i := 0; i < 10_000; i++ {
			evs = append(evs, Record{Kind: uint8(vm.EvAltFork), Forked: i%3 == 0})
		}
		f.Events = append(evs, f.Events...)
	})
	seeds["descending-interrupts"] = edit(seeds["rtl8029"], func(f *File) {
		for _, seq := range []uint64{90_000, 5_000, 400, 3} {
			f.Events = append(f.Events, Record{Kind: uint8(vm.EvInterrupt), Seq: seq})
		}
	})
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, f := range seeds {
		blob, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(blob)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(seed), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
