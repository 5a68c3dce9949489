package solver

import (
	"testing"

	"repro/internal/expr"
)

// TestCacheModelIsolation: mutating a model returned from the cache must
// not corrupt the cached copy.
func TestCacheModelIsolation(t *testing.T) {
	s := New()
	x := expr.Sym(0)
	cs := []*expr.Expr{expr.Eq(x, expr.Const(3))}
	_, m1 := s.Check(cs)
	m1[0] = 999
	_, m2 := s.Check(cs)
	if m2[0] != 3 {
		t.Fatalf("cached model was mutated through a returned copy: %v", m2)
	}
	if s.Stats.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", s.Stats.CacheHits)
	}
}

// TestCacheBoundAndEviction: the cache must stay within its bound and
// count evictions in Stats once distinct queries exceed it.
func TestCacheBoundAndEviction(t *testing.T) {
	const bound = 64
	s := New()
	s.cache.max = bound

	x := expr.Sym(0)
	const queries = bound * 4
	for i := 0; i < queries; i++ {
		// Distinct constraint sets -> distinct cache keys.
		if res, _ := s.Check([]*expr.Expr{expr.Eq(x, expr.Const(uint32(i)))}); res != Sat {
			t.Fatalf("query %d unsat", i)
		}
	}
	if n := len(s.cache.entries); n != bound {
		t.Fatalf("cache holds %d entries, bound %d", n, bound)
	}
	if s.Stats.CacheEvictions != queries-bound {
		t.Fatalf("evictions = %d after %d distinct queries into a %d-entry cache, want %d",
			s.Stats.CacheEvictions, queries, bound, queries-bound)
	}
	// The oldest keys went first: query 0 was evicted, the newest is cached.
	if _, ok := s.cache.entries[hashConstraints([]*expr.Expr{expr.Eq(x, expr.Const(0))})]; ok {
		t.Fatal("FIFO kept the oldest entry")
	}
	hits := s.Stats.CacheHits
	if res, m := s.Check([]*expr.Expr{expr.Eq(x, expr.Const(queries-1))}); res != Sat || m[0] != queries-1 {
		t.Fatalf("newest re-query: %v %v", res, m)
	}
	if s.Stats.CacheHits != hits+1 {
		t.Fatal("newest entry missed the cache")
	}
	// Evicted or not, every answer must still be correct on re-query.
	if res, m := s.Check([]*expr.Expr{expr.Eq(x, expr.Const(0))}); res != Sat || m[0] != 0 {
		t.Fatalf("post-eviction re-query: %v %v", res, m)
	}
}
