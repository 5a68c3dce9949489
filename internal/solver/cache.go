package solver

import "repro/internal/expr"

// DefaultCacheSize is the default bound on cached query results. It is
// sized so single-session runs never evict (the full evaluation corpus
// stays well under it); long fuzzing or multi-driver campaigns roll over
// via FIFO eviction instead of growing without bound.
const DefaultCacheSize = 1 << 16

// cache is a Solver's bounded store of query results, keyed by
// hashConstraints. Like its Solver it is single-goroutine scratch.
// Eviction is FIFO — oldest insertions go first — which is cheap,
// deterministic, and good enough for the workload (query keys recur within
// a phase, rarely across a whole session).
type cache struct {
	entries map[uint64]cacheEntry
	order   []uint64 // insertion order, for FIFO eviction
	max     int
}

type cacheEntry struct {
	res   Result
	model expr.Assignment
}

// get returns the cached result for the constraints cs under key. A Sat
// entry whose model does not satisfy cs answered another query whose key
// collided; it is a miss.
func (c *cache) get(key uint64, cs []*expr.Expr) (cacheEntry, bool) {
	e, ok := c.entries[key]
	if ok && e.res == Sat && !satisfies(cs, e.model) {
		ok = false
	}
	return e, ok
}

// put stores a result, evicting the oldest entries when full, and returns
// how many it evicted.
func (c *cache) put(key uint64, e cacheEntry) (evicted uint64) {
	if _, exists := c.entries[key]; !exists {
		for len(c.entries) >= c.max && len(c.order) > 0 {
			old := c.order[0]
			c.order = c.order[1:]
			if _, ok := c.entries[old]; ok {
				delete(c.entries, old)
				evicted++
			}
		}
		c.order = append(c.order, key)
	}
	c.entries[key] = e
	return evicted
}
