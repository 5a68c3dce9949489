package manager

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fuzz"
)

func feed(bytes ...byte) *fuzz.Feed { return &fuzz.Feed{Data: bytes} }

func crash(class string, site uint32, f *fuzz.Feed) *fuzz.Crash {
	return &fuzz.Crash{Class: class, RawClass: class, PC: site, Site: site, Entry: "send", Msg: "boom", Feed: f}
}

// TestStateCorpusDedup: corpus admission is content-hash keyed — the same
// feed from two workers is one entry; distinct feeds are distinct entries.
func TestStateCorpusDedup(t *testing.T) {
	s, err := OpenState("")
	if err != nil {
		t.Fatal(err)
	}
	ok, h1 := s.AddCorpus("rtl8029", fuzz.Entry{Feed: feed(1, 2, 3, 4), Gain: 2}, "w1")
	if !ok {
		t.Fatal("first admission rejected")
	}
	ok, h2 := s.AddCorpus("rtl8029", fuzz.Entry{Feed: feed(1, 2, 3, 4), Gain: 5}, "w2")
	if ok || h1 != h2 {
		t.Fatalf("duplicate feed admitted twice (%v, %s vs %s)", ok, h1, h2)
	}
	if ok, _ := s.AddCorpus("rtl8029", fuzz.Entry{Feed: feed(9), Gain: 1}, "w2"); !ok {
		t.Fatal("distinct feed rejected")
	}
	if n := len(s.CorpusFeeds("rtl8029")); n != 2 {
		t.Fatalf("corpus size = %d, want 2", n)
	}
	// Diff ships only what the caller is missing.
	diff := s.CorpusDiff("rtl8029", []string{h1})
	if len(diff) != 1 || !diff[0].Equal(feed(9)) {
		t.Fatalf("diff = %v, want just the second feed", diff)
	}
}

// TestStateFleetCrashDedup is the fleet-dedup satellite check: two workers
// reporting the same fault site + checker class from DIFFERENT feeds
// produce one crash entry holding two reproducers and both workers.
func TestStateFleetCrashDedup(t *testing.T) {
	s, err := OpenState("")
	if err != nil {
		t.Fatal(err)
	}
	newEntry, newRepro := s.AddCrash("rtl8029", "worker-1", crash("race condition", 0x44, feed(1, 2, 3, 4)))
	if !newEntry || !newRepro {
		t.Fatalf("first report: newEntry=%v newRepro=%v, want true/true", newEntry, newRepro)
	}
	newEntry, newRepro = s.AddCrash("rtl8029", "worker-2", crash("race condition", 0x44, feed(5, 6, 7, 8)))
	if newEntry || !newRepro {
		t.Fatalf("second report: newEntry=%v newRepro=%v, want false/true", newEntry, newRepro)
	}
	// Same worker, same feed again: pure duplicate, counted but not grown.
	newEntry, newRepro = s.AddCrash("rtl8029", "worker-2", crash("race condition", 0x44, feed(5, 6, 7, 8)))
	if newEntry || newRepro {
		t.Fatal("exact duplicate grew the entry")
	}

	crashes := s.Crashes("rtl8029")
	if len(crashes) != 1 {
		t.Fatalf("crash entries = %d, want 1 (fleet dedup)", len(crashes))
	}
	e := crashes[0]
	if e.Reports != 3 {
		t.Fatalf("reports = %d, want 3", e.Reports)
	}
	if len(e.Workers) != 2 || e.Workers[0] != "worker-1" || e.Workers[1] != "worker-2" {
		t.Fatalf("workers = %v, want [worker-1 worker-2]", e.Workers)
	}
	if len(e.Reproducers) != 2 {
		t.Fatalf("reproducers = %d, want 2 (distinct feeds)", len(e.Reproducers))
	}
	// A different class at the same site is a different bug.
	if newEntry, _ := s.AddCrash("rtl8029", "worker-1", crash("resource leak", 0x44, feed(1))); !newEntry {
		t.Fatal("different class at same site deduped away")
	}
}

// TestStateDurability: a state directory survives a close/reopen cycle —
// corpus entries (with metadata), crash entries, totals, coverage trend.
func TestStateDurability(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	tick := 0
	s.now = func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Second) }

	s.AddCorpus("rtl8029", fuzz.Entry{Feed: feed(1, 2, 3, 4), Gain: 3}, "w1")
	s.AddCorpus("rtl8029", fuzz.Entry{Feed: feed(5), Gain: 1}, "w2")
	s.AddCrash("rtl8029", "w1", crash("race condition", 0x44, feed(1, 2, 3, 4)))
	s.MergeCoverage("rtl8029", []uint32{0x10, 0x20}, 50, 100, 9999, "worker")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// The corpus files must be single-process-compatible seed-*.json.
	feeds, err := fuzz.LoadDir(filepath.Join(dir, "corpus", "rtl8029"))
	if err != nil {
		t.Fatal(err)
	}
	if len(feeds) != 2 {
		t.Fatalf("on-disk corpus = %d feeds, want 2", len(feeds))
	}

	r, err := OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := r.CorpusEntries("rtl8029")
	if len(entries) != 2 {
		t.Fatalf("reloaded corpus = %d entries, want 2", len(entries))
	}
	if entries[0].Gain != 3 || entries[0].Worker != "w1" {
		t.Fatalf("reloaded entry lost metadata: %+v", entries[0])
	}
	crashes := r.Crashes("rtl8029")
	if len(crashes) != 1 || len(crashes[0].Reproducers) != 1 {
		t.Fatalf("reloaded crashes = %+v, want 1 entry with 1 reproducer", crashes)
	}
	if crashes[0].Reproducers[0].Feed == nil {
		t.Fatal("reloaded reproducer lost its feed")
	}
	sums := r.Summaries()
	if len(sums) != 1 || sums[0].Execs != 100 || sums[0].Instructions != 9999 || sums[0].BlocksStatic != 50 {
		t.Fatalf("reloaded totals = %+v", sums)
	}
	if tr := r.CoverageTrend("rtl8029"); len(tr) != 1 || tr[0].Blocks != 2 {
		t.Fatalf("reloaded coverage trend = %+v", tr)
	}
}

// TestStateImportCorpusDir: a single-process ddtfuzz corpus directory
// imports cleanly (the shared on-disk format), deduplicating re-imports.
func TestStateImportCorpusDir(t *testing.T) {
	src := t.TempDir()
	if err := fuzz.SaveFeed(feed(1, 2, 3, 4), filepath.Join(src, "seed-0000.json")); err != nil {
		t.Fatal(err)
	}
	if err := fuzz.SaveFeed(feed(5, 6), filepath.Join(src, "seed-0001.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "notes.txt"), []byte("ignored"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenState("")
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.ImportCorpusDir("rtl8029", src)
	if err != nil || n != 2 {
		t.Fatalf("import = %d, %v; want 2, nil", n, err)
	}
	n, err = s.ImportCorpusDir("rtl8029", src)
	if err != nil || n != 0 {
		t.Fatalf("re-import = %d, %v; want 0, nil (dedup)", n, err)
	}
}

// TestIngestFuzzReport: a ddtfuzz -json report folds into the crash store
// and the coverage trend.
func TestIngestFuzzReport(t *testing.T) {
	s, err := OpenState("")
	if err != nil {
		t.Fatal(err)
	}
	rep := &fuzz.Report{
		Driver:        "rtl8029",
		Execs:         5000,
		Instructions:  77777,
		Crashes:       []*fuzz.Crash{crash("race condition", 0x44, feed(1, 2, 3, 4))},
		BlocksCovered: 40,
		BlocksStatic:  50,
	}
	if err := s.IngestFuzzReport(rep, "nightly"); err != nil {
		t.Fatal(err)
	}
	crashes := s.Crashes("rtl8029")
	if len(crashes) != 1 || len(crashes[0].Reproducers) != 1 {
		t.Fatalf("ingest crashes = %+v", crashes)
	}
	tr := s.CoverageTrend("rtl8029")
	if len(tr) != 1 || tr[0].Blocks != 40 || tr[0].Source != "nightly" {
		t.Fatalf("ingest trend = %+v", tr)
	}
	if err := s.IngestFuzzReport(&fuzz.Report{}, "x"); err == nil {
		t.Fatal("driverless report accepted")
	}
}

// TestFeedHashStability: the content hash is a pure function of the feed's
// canonical serialization — equal feeds hash equal, different feeds differ.
func TestFeedHashStability(t *testing.T) {
	a, b := FeedHash(feed(1, 2, 3)), FeedHash(feed(1, 2, 3))
	if a != b {
		t.Fatalf("equal feeds hashed differently: %s vs %s", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("hash length = %d, want 16 hex chars", len(a))
	}
	if FeedHash(feed(1, 2, 4)) == a {
		t.Fatal("different feeds collided")
	}
}

// TestStateIgnoresStaleBenchTrend: a state directory written by a ddtd that
// still kept a benchmark trend (trends/bench.jsonl) opens, serves its
// corpus, crashes and coverage trend, and flushes; the stale file is
// neither read nor rewritten.
func TestStateIgnoresStaleBenchTrend(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.AddCorpus("rtl8029", fuzz.Entry{Feed: feed(1, 2, 3, 4), Gain: 3}, "w1")
	s.AddCrash("rtl8029", "w1", crash("race condition", 0x44, feed(1, 2, 3, 4)))
	s.MergeCoverage("rtl8029", []uint32{0x10, 0x20}, 50, 100, 9999, "worker")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "trends", "bench.jsonl")
	old := []byte(`{"time":"2026-08-07T12:00:00Z","name":"BenchmarkFuzzExecsPerSec","metric":"ns/op","value":123}` + "\n" +
		`{"time":"2026-08-07T12:00:00Z","name":"BenchmarkFuzzExecsPerSec","metric":"execs/s","value":4000}` + "\n")
	if err := os.WriteFile(stale, old, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler(Config{}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewManager(r, sched).Handler())
	defer srv.Close()

	var corpusPage CorpusPage
	getJSON(t, srv.URL+"/corpus?driver=rtl8029", &corpusPage)
	if len(corpusPage.Entries) != 1 || corpusPage.Entries[0].Gain != 3 {
		t.Fatalf("/corpus = %+v", corpusPage)
	}
	var crashesPage CrashesPage
	getJSON(t, srv.URL+"/crashes", &crashesPage)
	if len(crashesPage.Crashes) != 1 {
		t.Fatalf("/crashes = %+v", crashesPage)
	}
	var trends map[string]json.RawMessage
	getJSON(t, srv.URL+"/trends", &trends)
	var cov []CoverageTrendPoint
	if err := json.Unmarshal(trends["coverage"], &cov); err != nil || len(cov) != 1 || cov[0].Blocks != 2 {
		t.Fatalf("/trends coverage = %s (%v)", trends["coverage"], err)
	}
	if _, ok := trends["bench"]; ok {
		t.Fatalf("/trends still serves a bench series: %s", trends["bench"])
	}

	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, last := r.WriteErrors(); n != 0 {
		t.Fatalf("write errors = %d (%s)", n, last)
	}
	if got, err := os.ReadFile(stale); err != nil || string(got) != string(old) {
		t.Fatalf("stale bench trend changed: %q, %v", got, err)
	}
}
