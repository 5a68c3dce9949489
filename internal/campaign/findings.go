package campaign

import (
	"fmt"
	"sync"
)

// FindingKey is the deduplication identity of a finding in every mode,
// "class@site", with the site from vm.Machine.FaultSite: core.Bug.Key and
// fuzz.Crash.Key return it, so both modes key one bug alike.
func FindingKey(class string, site uint32) string {
	return fmt.Sprintf("%s@%#x", class, site)
}

// Findings is the campaign-wide finding-deduplication ledger. Every mode
// keys its findings by FindingKey and admits them through one ledger, so
// a bug or crash is counted once per campaign regardless of which worker
// hit it. The StopAtFirstBug condition watches the ledger.
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

// Count returns the number of distinct findings admitted so far.
func (f *Findings) Count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}
