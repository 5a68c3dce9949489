package campaign

import "sync"

// Findings is the campaign-wide finding-deduplication ledger. Every mode
// keys its findings the same way — "class@site" — and admits them through
// one ledger, so a bug or crash is counted once per campaign regardless of
// which worker hit it. The runner watches the ledger for the
// StopAtFirstBug condition.
type Findings struct {
	mu   sync.Mutex
	seen map[string]bool
	n    int
}

// NewFindings returns an empty findings ledger.
func NewFindings() *Findings {
	return &Findings{seen: make(map[string]bool)}
}

// Admit records the key and reports whether it was new. The first Admit of
// a key returns true; duplicates return false.
func (f *Findings) Admit(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seen[key] {
		return false
	}
	f.seen[key] = true
	f.n++
	return true
}

// Seen reports whether the key has been admitted.
func (f *Findings) Seen(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen[key]
}

// Count returns the number of distinct findings admitted so far.
func (f *Findings) Count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}
