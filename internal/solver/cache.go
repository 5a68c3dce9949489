package solver

import (
	"sync"
	"sync/atomic"

	"repro/internal/expr"
)

// cacheShards is the shard count of a shared query cache. Sharding by key
// keeps lock contention negligible when many worker solvers share one
// cache: two workers collide only when they hash into the same shard at the
// same instant.
const cacheShards = 16

// DefaultCacheSize is the default bound on cached query results. It is
// sized so single-session runs never evict (the full evaluation corpus
// stays well under it); long fuzzing or multi-driver campaigns roll over
// via FIFO eviction instead of growing without bound.
const DefaultCacheSize = 1 << 16

// CacheStats is a point-in-time snapshot of shared-cache activity.
type CacheStats struct {
	// Hits counts queries answered from the cache, across every solver
	// attached to it.
	Hits uint64
	// Misses counts queries that had to be solved.
	Misses uint64
	// Evictions counts entries dropped by the size bound.
	Evictions uint64
	// Entries is the current number of cached results.
	Entries int
}

// Cache is a sharded, mutex-guarded, bounded store of solver query results.
// It is safe for concurrent use, so several Solvers may share one
// (NewWithCache): one Solver's Sat/Unsat answer is a hit for the others.
// Eviction is coarse FIFO per shard — oldest insertions go first — which is cheap,
// deterministic, and good enough for the workload (query keys recur within
// a phase, rarely across a whole session).
type Cache struct {
	shards [cacheShards]cacheShard

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[uint64]cacheEntry
	order   []uint64 // insertion order, for FIFO eviction
	max     int
}

// NewCache returns a shared query cache bounded to max entries (<=0 means
// DefaultCacheSize).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	perShard := max / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].entries = make(map[uint64]cacheEntry)
		c.shards[i].max = perShard
	}
	return c
}

func (c *Cache) shard(key uint64) *cacheShard {
	return &c.shards[(key>>48)%cacheShards]
}

// get returns the cached result for the constraints cs under key, counting
// the hit or miss. A Sat entry whose model does not satisfy cs answered
// another query whose key collided; it counts as a miss.
func (c *Cache) get(key uint64, cs []*expr.Expr) (cacheEntry, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	sh.mu.Unlock()
	if ok && e.res == Sat && !satisfies(cs, e.model) {
		ok = false
	}
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// put stores a result, evicting the shard's oldest entries when full.
func (c *Cache) put(key uint64, e cacheEntry) {
	sh := c.shard(key)
	sh.mu.Lock()
	if _, exists := sh.entries[key]; !exists {
		for len(sh.entries) >= sh.max && len(sh.order) > 0 {
			old := sh.order[0]
			sh.order = sh.order[1:]
			if _, ok := sh.entries[old]; ok {
				delete(sh.entries, old)
				c.evictions.Add(1)
			}
		}
		sh.order = append(sh.order, key)
	}
	sh.entries[key] = e
	sh.mu.Unlock()
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	s := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		c.shards[i].mu.Lock()
		s.Entries += len(c.shards[i].entries)
		c.shards[i].mu.Unlock()
	}
	return s
}

// Len returns the current entry count.
func (c *Cache) Len() int { return c.Stats().Entries }

type cacheEntry struct {
	res   Result
	model expr.Assignment
}
