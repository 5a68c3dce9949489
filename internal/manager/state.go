package manager

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/exerciser"
	"repro/internal/fuzz"
)

// FeedHash is the content identity of a feed: the hex-truncated SHA-256 of
// its canonical JSON serialization. Corpus entries are keyed by it
// fleet-wide, and it names the feed's file in the state directory
// (seed-<hash>.json — still matching the seed-*.json glob of the
// single-process corpus format, so fuzz.LoadDir reads manager corpora).
func FeedHash(f *fuzz.Feed) string {
	b, _ := f.Marshal() // Feed marshaling cannot fail (plain data fields)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// CorpusEntry is one fleet corpus feed with its admission metadata.
type CorpusEntry struct {
	Hash   string     `json:"hash"`
	Driver string     `json:"driver"`
	Gain   int        `json:"gain"`
	Size   int        `json:"size"`
	Worker string     `json:"worker,omitempty"`
	Added  time.Time  `json:"added"`
	Feed   *fuzz.Feed `json:"-"` // stored as its own seed-<hash>.json file
}

// corpusMeta is the persisted per-entry metadata (corpus/<driver>/index.json).
type corpusMeta struct {
	Gain   int       `json:"gain"`
	Worker string    `json:"worker,omitempty"`
	Added  time.Time `json:"added"`
}

// Reproducer is one distinct feed that reproduces a crash entry, with its
// reporting worker attached.
type Reproducer struct {
	Hash   string     `json:"hash"`
	Worker string     `json:"worker,omitempty"`
	Added  time.Time  `json:"added"`
	Feed   *fuzz.Feed `json:"feed"`
}

// CrashEntry is one fleet-deduplicated crash: however many workers hit the
// same checker class at the same fault site, there is exactly one entry,
// accumulating every distinct reproducer feed and the set of reporting
// workers.
type CrashEntry struct {
	// ID is the stable URL identity (/crash/<id>): a hash of driver+key.
	ID     string `json:"id"`
	Driver string `json:"driver"`
	// Key is the dedup identity, campaign.FindingKey: "<class>@<site>",
	// the same for a bug whichever lease mode reported it.
	Key         string    `json:"key"`
	Class       string    `json:"class"`
	RawClass    string    `json:"raw_class,omitempty"`
	PC          uint32    `json:"pc"`
	Site        uint32    `json:"site"`
	Entry       string    `json:"entry,omitempty"`
	Msg         string    `json:"msg,omitempty"`
	InInterrupt bool      `json:"in_interrupt,omitempty"`
	FirstSeen   time.Time `json:"first_seen"`
	// Reports counts every report of this key, duplicates included.
	Reports int `json:"reports"`
	// Workers is the sorted set of distinct reporting workers.
	Workers []string `json:"workers"`
	// Reproducers are the distinct feeds (by content hash) that reached the
	// crash, first report first. Reproducers[0] is the entry's canonical
	// (typically minimized) reproducer served at /crash/<id>.
	Reproducers []Reproducer `json:"reproducers"`
}

// crashID derives the stable /crash/<id> identity.
func crashID(driver, key string) string {
	sum := sha256.Sum256([]byte(driver + "|" + key))
	return hex.EncodeToString(sum[:6])
}

// CoverageTrendPoint is one fleet coverage sample, appended whenever a
// report added new blocks (trends/coverage.jsonl, one JSON object a line).
type CoverageTrendPoint struct {
	Time   time.Time `json:"time"`
	Driver string    `json:"driver"`
	Blocks int       `json:"blocks"`
	Static int       `json:"static,omitempty"`
	// Execs / Instructions are the fleet-cumulative counters at the sample.
	Execs        uint64 `json:"execs"`
	Instructions uint64 `json:"instructions"`
	// Source distinguishes live worker reports from one-shot ingests of
	// nightly campaign reports ("worker", "ingest").
	Source string `json:"source,omitempty"`
	// Snapshot-fabric lookup split carried over from persistent-mode fuzz
	// reports (fuzz.Report); zero/absent for non-persistent campaigns.
	SnapHits       uint64 `json:"snap_hits,omitempty"`
	SnapSharedHits uint64 `json:"snap_shared_hits,omitempty"`
	SnapMisses     uint64 `json:"snap_misses,omitempty"`
}

// driverState is the per-driver half of the store.
type driverState struct {
	corpus     map[string]*CorpusEntry // by feed hash
	corpusSeq  []string                // admission order
	crashes    map[string]*CrashEntry  // by crash key
	crashSeq   []string                // discovery order
	coverage   *exerciser.Coverage     // fleet-merged block map
	static     int
	execs      uint64
	instrs     uint64
	reproSeen  map[string]bool // crashKey|feedHash dedup
	corpusSave bool            // index.json dirty
}

// State is the durable campaign store: the single fleet-wide owner of
// corpus, crashes, merged coverage, and coverage trend. All methods are safe
// for concurrent use; reads for the HTTP layer take the read lock and copy.
//
// Durability is write-through for the heavy artifacts (a corpus feed file
// on admission, a crash entry file on every update, a trend line on every
// sample) plus an index flush (corpus metadata, totals) on Flush — which
// the server calls periodically and on shutdown. A failed corpus, crash or
// trend write-through does not fail the RPC that caused it (the entry is
// kept in memory); it is counted, and /status reports the count and last
// error.
type State struct {
	mu      sync.RWMutex
	dir     string // "" = memory-only (tests)
	drivers map[string]*driverState
	covTr   []CoverageTrendPoint
	started time.Time

	writeFails   uint64 // failed corpus/crash/trend write-throughs
	lastWriteErr string // the most recent one's error

	now func() time.Time // test hook
}

// totalsMeta is the persisted fleet counter file (meta.json).
type totalsMeta struct {
	Drivers map[string]struct {
		Execs        uint64 `json:"execs"`
		Instructions uint64 `json:"instructions"`
		Static       int    `json:"static,omitempty"`
	} `json:"drivers"`
}

// OpenState opens (creating if needed) a state directory and loads what is
// already there. An empty dir keeps everything in memory.
func OpenState(dir string) (*State, error) {
	s := &State{
		dir:     dir,
		drivers: make(map[string]*driverState),
		started: time.Now(),
		now:     time.Now,
	}
	if dir == "" {
		return s, nil
	}
	for _, sub := range []string{"corpus", "crashes", "trends"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *State) driver(name string) *driverState {
	d := s.drivers[name]
	if d == nil {
		d = &driverState{
			corpus:    make(map[string]*CorpusEntry),
			crashes:   make(map[string]*CrashEntry),
			coverage:  exerciser.NewCoverage(0),
			reproSeen: make(map[string]bool),
		}
		s.drivers[name] = d
	}
	return d
}

// AddCorpus admits a feed into the fleet corpus; duplicates (by content
// hash) are dropped. It reports whether the entry was new and its hash.
func (s *State) AddCorpus(driver string, e fuzz.Entry, worker string) (bool, string) {
	if e.Feed == nil {
		return false, ""
	}
	h := FeedHash(e.Feed)
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.driver(driver)
	if _, ok := d.corpus[h]; ok {
		return false, h
	}
	entry := &CorpusEntry{
		Hash:   h,
		Driver: driver,
		Gain:   e.Gain,
		Size:   e.Feed.Len(),
		Worker: worker,
		Added:  s.now(),
		Feed:   e.Feed,
	}
	d.corpus[h] = entry
	d.corpusSeq = append(d.corpusSeq, h)
	d.corpusSave = true
	if s.dir != "" {
		dir := filepath.Join(s.dir, "corpus", driver)
		err := os.MkdirAll(dir, 0o755)
		if err == nil {
			err = fuzz.SaveFeed(e.Feed, filepath.Join(dir, "seed-"+h+".json"))
		}
		s.noteWriteLocked(err)
	}
	return true, h
}

// CorpusFeeds returns every corpus feed for the driver, admission order.
func (s *State) CorpusFeeds(driver string) []*fuzz.Feed {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := s.drivers[driver]
	if d == nil {
		return nil
	}
	out := make([]*fuzz.Feed, 0, len(d.corpusSeq))
	for _, h := range d.corpusSeq {
		out = append(out, d.corpus[h].Feed)
	}
	return out
}

// CorpusDiff returns the corpus feeds the caller does not already hold
// (have = content hashes), admission order — the manager→worker half of
// the corpus exchange a report carries.
func (s *State) CorpusDiff(driver string, have []string) []*fuzz.Feed {
	haveSet := make(map[string]bool, len(have))
	for _, h := range have {
		haveSet[h] = true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := s.drivers[driver]
	if d == nil {
		return nil
	}
	var out []*fuzz.Feed
	for _, h := range d.corpusSeq {
		if !haveSet[h] {
			out = append(out, d.corpus[h].Feed)
		}
	}
	return out
}

// CorpusEntries returns copies of the driver's corpus entries (admission
// order) for the HTTP layer.
func (s *State) CorpusEntries(driver string) []CorpusEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := s.drivers[driver]
	if d == nil {
		return nil
	}
	out := make([]CorpusEntry, 0, len(d.corpusSeq))
	for _, h := range d.corpusSeq {
		out = append(out, *d.corpus[h])
	}
	return out
}

// AddCrash merges one worker-reported crash into the fleet crash store:
// dedup by fuzz.Crash.Key(), with each distinct reproducer feed attached
// to the single entry. It reports whether the entry itself was new and
// whether the reproducer was new for the entry.
func (s *State) AddCrash(driver, worker string, c *fuzz.Crash) (newEntry, newRepro bool) {
	if c == nil {
		return false, false
	}
	key := c.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.driver(driver)
	e, ok := d.crashes[key]
	if !ok {
		e = &CrashEntry{
			ID:          crashID(driver, key),
			Driver:      driver,
			Key:         key,
			Class:       c.Class,
			RawClass:    c.RawClass,
			PC:          c.PC,
			Site:        c.Site,
			Entry:       c.Entry,
			Msg:         c.Msg,
			InInterrupt: c.InInterrupt,
			FirstSeen:   s.now(),
		}
		d.crashes[key] = e
		d.crashSeq = append(d.crashSeq, key)
		newEntry = true
	}
	e.Reports++
	if !containsString(e.Workers, worker) && worker != "" {
		e.Workers = append(e.Workers, worker)
		sort.Strings(e.Workers)
	}
	if c.Feed != nil {
		h := FeedHash(c.Feed)
		if seen := key + "|" + h; !d.reproSeen[seen] {
			d.reproSeen[seen] = true
			e.Reproducers = append(e.Reproducers, Reproducer{
				Hash:   h,
				Worker: worker,
				Added:  s.now(),
				Feed:   c.Feed,
			})
			newRepro = true
		}
	}
	if s.dir != "" {
		s.saveCrashLocked(e)
	}
	return newEntry, newRepro
}

// MergeCoverage folds a worker's covered-block delta into the driver's
// fleet coverage map, advances the fleet exec/instruction counters by the
// given deltas, and appends a trend sample when new blocks arrived. It
// returns how many blocks were new fleet-wide.
func (s *State) MergeCoverage(driver string, blocks []uint32, static int, execsDelta, instrsDelta uint64, source string) int {
	s.mu.Lock()
	d := s.driver(driver)
	d.execs += execsDelta
	d.instrs += instrsDelta
	if static > d.static {
		d.static = static
		d.coverage.TotalStatic = static
	}
	added := d.coverage.Merge(blocks, d.instrs)
	var pt CoverageTrendPoint
	if added > 0 {
		pt = CoverageTrendPoint{
			Time:         s.now(),
			Driver:       driver,
			Blocks:       d.coverage.Blocks(),
			Static:       d.static,
			Execs:        d.execs,
			Instructions: d.instrs,
			Source:       source,
		}
		s.covTr = append(s.covTr, pt)
	}
	dir := s.dir
	s.mu.Unlock()
	if added > 0 && dir != "" {
		s.appendTrend(dir, "coverage.jsonl", pt)
	}
	return added
}

// Crashes returns copies of the fleet crash entries, discovery order,
// optionally filtered by driver ("" = all drivers).
func (s *State) Crashes(driver string) []CrashEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []CrashEntry
	for _, name := range s.driverNamesLocked() {
		if driver != "" && name != driver {
			continue
		}
		d := s.drivers[name]
		for _, k := range d.crashSeq {
			e := *d.crashes[k]
			e.Workers = append([]string(nil), e.Workers...)
			e.Reproducers = append([]Reproducer(nil), e.Reproducers...)
			out = append(out, e)
		}
	}
	return out
}

// CrashByID looks a crash entry up by its stable /crash/<id> identity.
func (s *State) CrashByID(id string) (CrashEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, d := range s.drivers {
		for _, e := range d.crashes {
			if e.ID == id {
				out := *e
				out.Workers = append([]string(nil), out.Workers...)
				out.Reproducers = append([]Reproducer(nil), out.Reproducers...)
				return out, true
			}
		}
	}
	return CrashEntry{}, false
}

// DriverSummary is the per-driver roll-up served at /status.
type DriverSummary struct {
	Driver        string  `json:"driver"`
	CorpusSize    int     `json:"corpus_size"`
	Crashes       int     `json:"crashes"`
	BlocksCovered int     `json:"blocks_covered"`
	BlocksStatic  int     `json:"blocks_static"`
	Coverage      float64 `json:"coverage"`
	Execs         uint64  `json:"execs"`
	Instructions  uint64  `json:"instructions"`
}

// Summaries returns the per-driver roll-ups, driver-name order.
func (s *State) Summaries() []DriverSummary {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []DriverSummary
	for _, name := range s.driverNamesLocked() {
		d := s.drivers[name]
		sum := DriverSummary{
			Driver:        name,
			CorpusSize:    len(d.corpus),
			Crashes:       len(d.crashes),
			BlocksCovered: d.coverage.Blocks(),
			BlocksStatic:  d.static,
			Execs:         d.execs,
			Instructions:  d.instrs,
		}
		if d.static > 0 {
			sum.Coverage = float64(sum.BlocksCovered) / float64(d.static)
		}
		out = append(out, sum)
	}
	return out
}

// CoverageTrend returns the coverage trend series (optionally filtered by
// driver), oldest first.
func (s *State) CoverageTrend(driver string) []CoverageTrendPoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []CoverageTrendPoint
	for _, p := range s.covTr {
		if driver == "" || p.Driver == driver {
			out = append(out, p)
		}
	}
	return out
}

// Flush writes the index files (corpus metadata, fleet totals). Heavy
// artifacts are already on disk write-through; Flush makes the cheap
// bookkeeping durable. Called periodically by the server and on shutdown.
func (s *State) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" {
		return nil
	}
	var firstErr error
	meta := totalsMeta{Drivers: make(map[string]struct {
		Execs        uint64 `json:"execs"`
		Instructions uint64 `json:"instructions"`
		Static       int    `json:"static,omitempty"`
	})}
	for name, d := range s.drivers {
		meta.Drivers[name] = struct {
			Execs        uint64 `json:"execs"`
			Instructions uint64 `json:"instructions"`
			Static       int    `json:"static,omitempty"`
		}{d.execs, d.instrs, d.static}
		if !d.corpusSave {
			continue
		}
		idx := make(map[string]corpusMeta, len(d.corpus))
		for h, e := range d.corpus {
			idx[h] = corpusMeta{Gain: e.Gain, Worker: e.Worker, Added: e.Added}
		}
		if err := writeJSON(filepath.Join(s.dir, "corpus", name, "index.json"), idx); err != nil && firstErr == nil {
			firstErr = err
		} else if err == nil {
			d.corpusSave = false
		}
	}
	if err := writeJSON(filepath.Join(s.dir, "meta.json"), meta); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// ImportCorpusDir loads a single-process ddtfuzz corpus directory
// (seed-*.json) into the fleet corpus for the driver — the import path for
// pre-manager campaigns. It returns how many entries were new.
func (s *State) ImportCorpusDir(driver, dir string) (int, error) {
	feeds, err := fuzz.LoadDir(dir)
	if err != nil {
		return 0, err
	}
	added := 0
	for _, f := range feeds {
		// Imported entries carry no admission gain; weight them 1 so they
		// participate in seeding but never dominate live entries.
		if ok, _ := s.AddCorpus(driver, fuzz.Entry{Feed: f, Gain: 1}, "import"); ok {
			added++
		}
	}
	return added, nil
}

// load restores the store from the state directory.
func (s *State) load() error {
	// Corpus: corpus/<driver>/seed-<hash>.json (+ index.json metadata).
	corpusRoot := filepath.Join(s.dir, "corpus")
	drivers, err := os.ReadDir(corpusRoot)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	for _, de := range drivers {
		if !de.IsDir() {
			continue
		}
		driver := de.Name()
		dir := filepath.Join(corpusRoot, driver)
		var idx map[string]corpusMeta
		readJSON(filepath.Join(dir, "index.json"), &idx)
		feeds, err := fuzz.LoadDir(dir)
		if err != nil {
			return fmt.Errorf("manager: loading corpus for %s: %w", driver, err)
		}
		d := s.driver(driver)
		for _, f := range feeds {
			h := FeedHash(f)
			if _, ok := d.corpus[h]; ok {
				continue
			}
			e := &CorpusEntry{Hash: h, Driver: driver, Gain: 1, Size: f.Len(), Feed: f}
			if m, ok := idx[h]; ok {
				e.Gain, e.Worker, e.Added = m.Gain, m.Worker, m.Added
			}
			d.corpus[h] = e
			d.corpusSeq = append(d.corpusSeq, h)
		}
		// Deterministic order across restarts: LoadDir sorts file names,
		// which sorts by hash; re-sort by admission time when we have it.
		sort.SliceStable(d.corpusSeq, func(i, j int) bool {
			return d.corpus[d.corpusSeq[i]].Added.Before(d.corpus[d.corpusSeq[j]].Added)
		})
	}

	// Crashes: crashes/<driver>/<id>.json.
	crashRoot := filepath.Join(s.dir, "crashes")
	drivers, err = os.ReadDir(crashRoot)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	for _, de := range drivers {
		if !de.IsDir() {
			continue
		}
		driver := de.Name()
		files, err := filepath.Glob(filepath.Join(crashRoot, driver, "*.json"))
		if err != nil {
			return err
		}
		sort.Strings(files)
		d := s.driver(driver)
		var entries []*CrashEntry
		for _, fn := range files {
			var e CrashEntry
			if err := readJSON(fn, &e); err != nil {
				return fmt.Errorf("manager: crash file %s: %w", fn, err)
			}
			entries = append(entries, &e)
		}
		sort.SliceStable(entries, func(i, j int) bool {
			return entries[i].FirstSeen.Before(entries[j].FirstSeen)
		})
		for _, e := range entries {
			if _, ok := d.crashes[e.Key]; ok {
				continue
			}
			d.crashes[e.Key] = e
			d.crashSeq = append(d.crashSeq, e.Key)
			for _, r := range e.Reproducers {
				d.reproSeen[e.Key+"|"+r.Hash] = true
			}
		}
	}

	// Totals.
	var meta totalsMeta
	readJSON(filepath.Join(s.dir, "meta.json"), &meta)
	for name, t := range meta.Drivers {
		d := s.driver(name)
		d.execs, d.instrs, d.static = t.Execs, t.Instructions, t.Static
		d.coverage.TotalStatic = t.Static
	}

	// Trends (also rebuilds the merged coverage block counts' series floor:
	// the covered-block SET is not persisted point-by-point, so after a
	// restart the fleet map restarts empty and re-merges as workers report;
	// the historical series is what /trends serves).
	readJSONL(filepath.Join(s.dir, "trends", "coverage.jsonl"), func(raw []byte) {
		var p CoverageTrendPoint
		if json.Unmarshal(raw, &p) == nil {
			s.covTr = append(s.covTr, p)
		}
	})
	return nil
}

func (s *State) driverNamesLocked() []string {
	names := make([]string, 0, len(s.drivers))
	for n := range s.drivers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func containsString(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// saveCrashLocked write-throughs one crash entry (caller holds s.mu).
func (s *State) saveCrashLocked(e *CrashEntry) {
	dir := filepath.Join(s.dir, "crashes", e.Driver)
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = writeJSON(filepath.Join(dir, e.ID+".json"), e)
	}
	s.noteWriteLocked(err)
}

// noteWriteLocked counts a failed write-through (caller holds s.mu).
func (s *State) noteWriteLocked(err error) {
	if err != nil {
		s.writeFails++
		s.lastWriteErr = err.Error()
	}
}

// WriteErrors returns how many corpus, crash and trend write-throughs
// failed and the last failure's error ("" when none did).
func (s *State) WriteErrors() (uint64, string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.writeFails, s.lastWriteErr
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func readJSONL(path string, each func(raw []byte)) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) > 0 {
			each(line)
		}
	}
}

// appendTrend write-throughs one line to trends/<name>, counting a failure.
func (s *State) appendTrend(dir, name string, v any) {
	if err := appendJSONL(filepath.Join(dir, "trends", name), v); err != nil {
		s.mu.Lock()
		s.noteWriteLocked(err)
		s.mu.Unlock()
	}
}

func appendJSONL(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sanitizeName makes an arbitrary worker-supplied name filesystem- and
// log-safe.
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, s)
}
