package fuzz

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/expr"
)

func TestFeedRoundTrip(t *testing.T) {
	f := &Feed{
		Data:  []byte{1, 2, 3, 0xFF, 0x80, 0},
		Forks: []byte{1, 0, 1},
		IRQ:   []uint64{120, 4096},
	}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	g, err := UnmarshalFeed(b)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(g) {
		t.Fatalf("round trip mismatch: %+v vs %+v", f, g)
	}
	if f.Equal(&Feed{Data: f.Data}) {
		t.Fatal("Equal ignored forks/irq")
	}
}

func TestFeedReaderExhaustion(t *testing.T) {
	var r feedReader
	r.reset(&Feed{Data: []byte{0x11, 0x22}})
	if w := r.word(); w != 0x2211 {
		t.Fatalf("partial word = %#x, want 0x2211", w)
	}
	if w := r.word(); w != 0 {
		t.Fatalf("exhausted word = %#x, want 0", w)
	}
	if r.forkBit() {
		t.Fatal("exhausted fork stream must answer the primary outcome")
	}
	if _, ok := r.nextIRQ(); ok {
		t.Fatal("no IRQ scheduled")
	}
}

// TestMutatorDeterministic: two mutators with the same seed produce the
// same stream of mutants — the property every replayable campaign rests on.
func TestMutatorDeterministic(t *testing.T) {
	base := &Feed{Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Forks: []byte{0}, IRQ: []uint64{100}}
	donor := &Feed{Data: []byte{9, 9, 9, 9}}
	a, b := NewMutator(42), NewMutator(42)
	for i := 0; i < 200; i++ {
		fa := a.Mutate(base, donor)
		fb := b.Mutate(base, donor)
		if !fa.Equal(fb) {
			t.Fatalf("iteration %d diverged: %+v vs %+v", i, fa, fb)
		}
	}
	c := NewMutator(43)
	same := 0
	for i := 0; i < 50; i++ {
		if a.Mutate(base, donor).Equal(c.Mutate(base, donor)) {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical mutation streams")
	}
}

func TestMutatorGenerateDeterministic(t *testing.T) {
	a, b := NewMutator(7), NewMutator(7)
	for i := 0; i < 50; i++ {
		if !a.Generate().Equal(b.Generate()) {
			t.Fatalf("Generate diverged at %d", i)
		}
	}
}

func TestCorpusAdmissionEviction(t *testing.T) {
	c := NewCorpus(4)
	if c.Add(&Feed{Data: []byte{1}}, 0) {
		t.Fatal("zero-gain feed admitted")
	}
	for i := 0; i < 4; i++ {
		if !c.Add(&Feed{Data: make([]byte, i+1)}, i+2) {
			t.Fatalf("feed %d rejected", i)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
	// Admitting a 5th evicts the lowest-gain entry (gain 2).
	c.Add(&Feed{Data: make([]byte, 40)}, 10)
	if c.Len() != 4 {
		t.Fatalf("len after eviction = %d, want 4", c.Len())
	}
	for _, f := range c.Snapshot() {
		if len(f.Data) == 1 {
			t.Fatal("lowest-gain entry survived eviction")
		}
	}
	// Ties evict the longer feed.
	c2 := NewCorpus(2)
	c2.Add(&Feed{Data: make([]byte, 100)}, 3)
	c2.Add(&Feed{Data: make([]byte, 2)}, 3)
	c2.Add(&Feed{Data: make([]byte, 10)}, 3)
	for _, f := range c2.Snapshot() {
		if len(f.Data) == 100 {
			t.Fatal("longer feed survived tie eviction")
		}
	}
}

func TestCorpusChooseWeighted(t *testing.T) {
	c := NewCorpus(8)
	c.Add(&Feed{Data: []byte{1}}, 1)
	c.Add(&Feed{Data: []byte{2}}, 50)
	rng := NewMutator(3).rng
	hi := 0
	for i := 0; i < 500; i++ {
		if f := c.Choose(rng); len(f.Data) == 1 && f.Data[0] == 2 {
			hi++
		}
	}
	if hi < 300 {
		t.Fatalf("high-gain entry chosen only %d/500 times", hi)
	}
	if NewCorpus(2).Choose(rng) != nil {
		t.Fatal("empty corpus must yield nil")
	}
}

// TestCorpusEnergySchedule: an entry with RECENT coverage gain must draw
// exponentially more mutation energy than an equal-gain entry buried under
// later admissions, and the boost must respect the cap.
func TestCorpusEnergySchedule(t *testing.T) {
	c := NewCorpus(64)
	c.Add(&Feed{Data: []byte{0}}, 4) // index 0: will go stale
	// Bury entry 0 beyond the energy window.
	for i := 1; i <= energyWindow; i++ {
		c.Add(&Feed{Data: []byte{byte(i)}}, 4)
	}
	fresh := c.Len() - 1 // the newest admission, same gain as entry 0

	stale, hot := c.Energy(0), c.Energy(fresh)
	if stale != 4 {
		t.Fatalf("stale energy = %v, want plain gain 4", stale)
	}
	want := float64(4 * (1 << energyWindow))
	if want > EnergyCap {
		want = EnergyCap
	}
	if hot != want {
		t.Fatalf("fresh energy = %v, want %v (gain<<window)", hot, want)
	}

	// Selection must follow the schedule: the fresh entry wins far more
	// often than the equally-gained stale one.
	rng := NewMutator(7).rng
	freshFeed := byte(energyWindow)
	var freshN, staleN int
	for i := 0; i < 2000; i++ {
		switch c.Choose(rng).Data[0] {
		case freshFeed:
			freshN++
		case 0:
			staleN++
		}
	}
	// The preference erodes as the fresh entry's Chosen count damps its
	// energy (by design), so assert a strong but not initial-ratio margin.
	if freshN < 4*staleN {
		t.Fatalf("fresh chosen %d vs stale %d; want exponential preference", freshN, staleN)
	}
}

// TestCorpusEnergyCap: a huge admission gain must clamp to EnergyCap.
func TestCorpusEnergyCap(t *testing.T) {
	c := NewCorpus(8)
	c.Add(&Feed{Data: []byte{1}}, 1_000_000)
	if got := c.Energy(0); got != EnergyCap {
		t.Fatalf("energy = %v, want cap %v", got, float64(EnergyCap))
	}
}

// TestCorpusEnergyDecay: repeatedly choosing an entry damps its energy.
func TestCorpusEnergyDecay(t *testing.T) {
	c := NewCorpus(8)
	c.Add(&Feed{Data: []byte{1}}, 8)
	before := c.Energy(0)
	rng := NewMutator(1).rng
	for i := 0; i < 64; i++ {
		c.Choose(rng)
	}
	after := c.Energy(0)
	if after >= before {
		t.Fatalf("energy did not decay with use: %v -> %v", before, after)
	}
}

func TestCrashDedup(t *testing.T) {
	cs := newCrashStore()
	a := &Crash{Class: "segmentation fault", Site: 0x100100, PC: 0x0}
	b := &Crash{Class: "segmentation fault", Site: 0x100100, PC: 0xdeadbeef} // other wild target, same site
	c := &Crash{Class: "memory corruption", Site: 0x100100}
	d := &Crash{Class: "segmentation fault", Site: 0x100200}
	if !cs.add(a) || cs.add(b) {
		t.Fatal("same class+site must dedup")
	}
	if !cs.add(c) || !cs.add(d) {
		t.Fatal("distinct class or site must not dedup")
	}
	if got := len(cs.list()); got != 3 || cs.count() != 3 {
		t.Fatalf("crashes = %d, count = %d, want 3", got, cs.count())
	}
}

// TestExecutorDeterministic: the same feed always takes the same path —
// the property that makes crash feeds replayable evidence.
func TestExecutorDeterministic(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	mu := NewMutator(11)
	exec1 := NewExecutor(img, nil, DefaultOptions())
	exec2 := NewExecutor(img, nil, DefaultOptions())
	for i := 0; i < 30; i++ {
		f := mu.Generate()
		a, b := exec1.Run(f), exec2.Run(f)
		if a.Steps != b.Steps || a.Blocks != b.Blocks ||
			(a.Crash == nil) != (b.Crash == nil) {
			t.Fatalf("feed %d diverged: %+v vs %+v", i, a, b)
		}
		if a.Crash != nil && a.Crash.Key() != b.Crash.Key() {
			t.Fatalf("feed %d crash diverged: %s vs %s", i, a.Crash.Key(), b.Crash.Key())
		}
		// Re-running on the same executor must reproduce too (reset check).
		c := exec1.Run(f)
		if c.Steps != a.Steps {
			t.Fatalf("feed %d not reproducible on executor reuse", i)
		}
	}
}

// TestFuzzFindsRTL8029Bugs is the end-to-end check: fuzzing the buggy
// RTL8029 within a fixed exec budget finds at least one planted Table 2
// bug class, deduplicated, with a replayable feed.
func TestFuzzFindsRTL8029Bugs(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := corpus.Get("rtl8029")
	if !ok {
		t.Fatal("rtl8029 spec missing")
	}
	expected := make(map[string]bool)
	for _, c := range spec.ExpectedBugs {
		expected[c] = true
	}

	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.MaxExecs = 5_000
	cfg.CorpusDir = filepath.Join(t.TempDir(), "corpus")
	f := New(img, cfg)
	rep, err := f.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Execs == 0 || rep.ExecsPerSec == 0 {
		t.Fatalf("bad exec accounting: %+v", rep)
	}
	hits := 0
	for class := range rep.CountByClass() {
		if expected[class] {
			hits++
		}
	}
	if hits == 0 {
		t.Fatalf("no expected bug class found in %d execs:\n%s", rep.Execs, rep)
	}
	keys := make(map[string]bool)
	for _, c := range rep.Crashes {
		if keys[c.Key()] {
			t.Fatalf("crash key %s reported twice (dedup broken)", c.Key())
		}
		keys[c.Key()] = true
		if c.Feed == nil {
			t.Fatalf("crash %s has no feed", c.Key())
		}
		if !c.Reproduced {
			t.Errorf("crash %s feed did not replay", c.Key())
		}
		// Independent replay on a fresh executor.
		res := NewExecutor(img, nil, DefaultOptions()).Run(c.Feed)
		if res.Crash == nil || res.Crash.Key() != c.Key() {
			t.Errorf("crash %s: fresh replay did not reproduce", c.Key())
		}
	}
	// The persisted corpus must load back.
	loaded, err := LoadDir(cfg.CorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorpusSize > 0 && len(loaded) != rep.CorpusSize {
		t.Fatalf("persisted %d corpus feeds, report says %d", len(loaded), rep.CorpusSize)
	}
}

// TestFuzzFixedVariantClean is the zero-false-positive property: the
// corrected driver build must survive the same fuzzing budget without a
// single crash.
func TestFuzzFixedVariantClean(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Fixed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.MaxExecs = 3_000
	rep, err := New(img, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Crashes) != 0 {
		t.Fatalf("fixed variant crashed:\n%s", rep)
	}
}

// TestBridgeFromBug: a symbolic engine bug converts to a feed whose words
// are the solved inputs in creation order.
func TestBridgeFromBug(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(img, core.DefaultOptions())
	rep, err := eng.TestDriver(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bugs) == 0 {
		t.Fatal("symbolic run found no bugs to bridge")
	}
	for _, b := range rep.Bugs {
		feed := FromBug(b)
		if len(b.Symbols) > 0 && len(feed.Data) != 4*len(b.Symbols) {
			t.Fatalf("bug %s: feed %d bytes for %d symbols", b.Key(), len(feed.Data), len(b.Symbols))
		}
		if b.InInterrupt && len(feed.IRQ) == 0 {
			t.Fatalf("bug %s: interrupt bug bridged without IRQ schedule", b.Key())
		}
	}
}

// TestBridgeLiftFeed: lifting pins exactly the prefix and respects the
// executor's clamp rules.
func TestBridgeLiftFeed(t *testing.T) {
	f := &Feed{Data: []byte{
		0xFF, 0xFF, 0xFF, 0xFF, // word 0
		0x05, 0x00, 0x00, 0x00, // word 1
	}}
	seed := LiftFeed(f, 2)
	v, ok := seed(0, "registry_value", expr.OriginRegistry)
	if !ok || v&0x80000000 != 0 {
		t.Fatalf("registry clamp missing: %#x ok=%v", v, ok)
	}
	v, ok = seed(0, "packet_len", expr.OriginPacket)
	if !ok || v < 14 || v > 64 {
		t.Fatalf("packet_len clamp missing: %d", v)
	}
	if _, ok := seed(2, "x", expr.OriginHardware); ok {
		t.Fatal("index past the prefix must not pin")
	}
}

// TestClampEncodeRoundTrip: encodeWord must invert clampWord on every
// value a satisfying engine model can assign, so bridged feeds replay the
// exact symbolic witness.
func TestClampEncodeRoundTrip(t *testing.T) {
	for v := uint32(14); v <= 64; v++ {
		got := clampWord("packet_len", expr.OriginPacket, encodeWord("packet_len#3", v))
		if got != v {
			t.Fatalf("packet_len %d round-tripped to %d", v, got)
		}
	}
	// Registry values in a model satisfy symb >= 0 (signed), on which the
	// clamp is the identity.
	for _, v := range []uint32{0, 1, 8, 0x7FFFFFFF} {
		if got := clampWord("registry_value", expr.OriginRegistry, encodeWord("registry_value#1", v)); got != v {
			t.Fatalf("registry %#x round-tripped to %#x", v, got)
		}
	}
}

// TestFromBugFeedsReproduce: every bug the sequential engine reports on
// the buggy RTL8029, bridged with FromBug, crashes a fresh executor with
// the bug's class — the race included, whose feed must carry the exact
// interrupt instant.
func TestFromBugFeedsReproduce(t *testing.T) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.NewEngine(img, core.DefaultOptions()).TestDriver(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bugs) != 5 {
		t.Fatalf("symbolic run found %d bugs, want 5", len(rep.Bugs))
	}
	races := 0
	for _, b := range rep.Bugs {
		if b.Class == "race condition" {
			races++
		}
		res := NewExecutor(img, nil, DefaultOptions()).Run(FromBug(b))
		if res.Crash == nil {
			t.Errorf("bug %s: bridged feed ran without a crash", b.Key())
			continue
		}
		if res.Crash.Class != b.Class {
			t.Errorf("bug %s: bridged feed crashed as %s", b.Key(), res.Crash.Key())
		}
	}
	if races == 0 {
		t.Error("symbolic run reported no race condition to bridge")
	}
}
