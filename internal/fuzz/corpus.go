package fuzz

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Entry is one admitted corpus feed with its admission metadata. It doubles
// as a wire type: workers sync admitted entries (feed + gain) to the
// campaign manager, so the tags are a stable format (wire_test.go).
type Entry struct {
	Feed *Feed `json:"feed"`
	// Gain is the number of new coverage blocks the feed discovered when it
	// was admitted — the weight for seed selection and the eviction score.
	Gain int `json:"gain"`
	// Chosen counts how often the entry seeded a mutation (energy decay).
	Chosen uint64 `json:"chosen,omitempty"`
	// AdmitTick is the corpus admission counter value when this entry was
	// admitted; recency (distance from the current tick) drives the
	// exponential energy boost.
	AdmitTick uint64 `json:"admit_tick,omitempty"`
}

// AFL-style exponential energy schedule: a feed admitted within the last
// energyWindow admissions gets its selection weight doubled once per step
// of recency (the newest entry gets gain<<energyWindow), so workers pile
// mutations onto the frontier of fresh coverage instead of re-mutating the
// long-exhausted early corpus uniformly. EnergyCap bounds the boost so one
// lucky high-gain feed cannot starve the rest of the pool.
const (
	energyWindow = 6
	// EnergyCap bounds any entry's selection weight.
	EnergyCap = 1 << 12
)

// Corpus is the shared seed pool: coverage-novelty admission, bounded size
// with lowest-value eviction, exponential-recency energy selection. Safe
// for concurrent use by the worker pool.
type Corpus struct {
	mu      sync.Mutex
	entries []*Entry
	max     int
	// tick counts admissions; entry energy decays as newer feeds arrive.
	tick uint64
}

// NewCorpus returns a corpus bounded to max entries (0 means a default cap).
func NewCorpus(max int) *Corpus {
	if max <= 0 {
		max = 256
	}
	return &Corpus{max: max}
}

// Add admits a feed that discovered gain new blocks. Feeds with no gain are
// rejected — that is the coverage-guided admission rule. When the corpus is
// full, the lowest-value entry (smallest gain, ties broken by longer feed)
// is evicted.
func (c *Corpus) Add(f *Feed, gain int) bool {
	if gain <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	c.entries = append(c.entries, &Entry{Feed: f, Gain: gain, AdmitTick: c.tick})
	if len(c.entries) > c.max {
		worst := 0
		for i, e := range c.entries {
			w := c.entries[worst]
			if e.Gain < w.Gain || (e.Gain == w.Gain && e.Feed.Len() > w.Feed.Len()) {
				worst = i
			}
		}
		c.entries = append(c.entries[:worst], c.entries[worst+1:]...)
	}
	return true
}

// Len returns the number of entries.
func (c *Corpus) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// energy computes an entry's selection weight at the current tick: the
// admission gain, doubled once per step of recency within the last
// energyWindow admissions (AFL-style exponential schedule), damped by how
// often the entry already seeded mutations, and capped at EnergyCap.
func (c *Corpus) energy(e *Entry) float64 {
	w := float64(e.Gain)
	if age := c.tick - e.AdmitTick; age < energyWindow {
		w *= float64(uint64(1) << (energyWindow - age))
	}
	if w > EnergyCap {
		w = EnergyCap
	}
	w /= float64(1 + e.Chosen/8)
	if w < 1 {
		w = 1
	}
	return w
}

// Energy reports the current selection weight of the i-th entry (test and
// diagnostics hook).
func (c *Corpus) Energy(i int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.energy(c.entries[i])
}

// Choose picks a seed, weighted by the exponential-recency energy
// schedule: entries whose coverage gain is recent get exponentially more
// mutation energy (capped), stale and over-chosen entries decay toward the
// uniform floor. Returns nil on an empty corpus. Randomness comes from the
// caller's deterministic source.
func (c *Corpus) Choose(rng *rand.Rand) *Feed {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) == 0 {
		return nil
	}
	total := 0.0
	weights := make([]float64, len(c.entries))
	for i, e := range c.entries {
		w := c.energy(e)
		weights[i] = w
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			c.entries[i].Chosen++
			return c.entries[i].Feed
		}
	}
	last := c.entries[len(c.entries)-1]
	last.Chosen++
	return last.Feed
}

// RandomDonor returns a uniformly random corpus feed (nil when empty) —
// the cheap splice-donor lookup for the mutation hot loop, which does not
// need Snapshot's copy and sort.
func (c *Corpus) RandomDonor(rng *rand.Rand) *Feed {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) == 0 {
		return nil
	}
	return c.entries[rng.Intn(len(c.entries))].Feed
}

// Export returns a copy of the current entries (feed pointers shared,
// metadata copied) in admission order. This is the corpus-sync export hook:
// a manager-attached worker diffs successive exports to ship only the
// entries admitted since its last sync.
func (c *Corpus) Export() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, len(c.entries))
	for i, e := range c.entries {
		out[i] = *e
	}
	return out
}

// Snapshot returns the current feeds, highest admission gain first.
func (c *Corpus) Snapshot() []*Feed {
	c.mu.Lock()
	es := append([]*Entry(nil), c.entries...)
	c.mu.Unlock()
	sort.SliceStable(es, func(i, j int) bool { return es[i].Gain > es[j].Gain })
	out := make([]*Feed, len(es))
	for i, e := range es {
		out[i] = e.Feed
	}
	return out
}

// SaveDir persists the corpus as one JSON feed file per entry.
func (c *Corpus) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, f := range c.Snapshot() {
		if err := SaveFeed(f, filepath.Join(dir, fmt.Sprintf("seed-%04d.json", i))); err != nil {
			return err
		}
	}
	return nil
}

// LoadDir reads every feed file in dir (missing dir is an empty result).
func LoadDir(dir string) ([]*Feed, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seed-*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var out []*Feed
	for _, n := range names {
		f, err := LoadFeed(n)
		if err != nil {
			return nil, fmt.Errorf("fuzz: corpus file %s: %w", n, err)
		}
		out = append(out, f)
	}
	return out, nil
}

// crashStore stores deduplicated crashes by finding key (checker class and
// fault site), in discovery order. Safe for concurrent use by the worker
// pool.
type crashStore struct {
	mu    sync.Mutex
	byKey map[string]*Crash
	order []string
}

func newCrashStore() *crashStore {
	return &crashStore{byKey: make(map[string]*Crash)}
}

// add records a crash; it reports whether the key was new. Only the first
// goroutine to add a key stores it.
func (cs *crashStore) add(c *Crash) bool {
	k := c.Key()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.byKey[k] != nil {
		return false
	}
	cs.byKey[k] = c
	cs.order = append(cs.order, k)
	return true
}

// count returns the number of distinct crashes recorded so far.
func (cs *crashStore) count() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.order)
}

// finalize publishes triage results (the minimized feed and the
// verification verdict) under the store lock. Triage runs after add — dedup
// must happen before the minimization budget is spent — so these two fields
// mutate after publication; routing the writes through the lock keeps
// concurrent list() readers (the manager-worker report loop) race-free.
func (cs *crashStore) finalize(c *Crash, feed *Feed, reproduced bool) {
	cs.mu.Lock()
	c.Feed = feed
	c.Reproduced = reproduced
	cs.mu.Unlock()
}

// list returns the deduplicated crashes in discovery order. The returned
// structs are copies: safe to read and serialize while triage is still
// finalizing entries.
func (cs *crashStore) list() []*Crash {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make([]*Crash, 0, len(cs.order))
	for _, k := range cs.order {
		cp := *cs.byKey[k]
		out = append(out, &cp)
	}
	return out
}
