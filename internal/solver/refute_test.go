package solver

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
)

// TestRefuteDecidesWithoutProbing: the query shapes that used to exhaust
// the probe budget and end Unknown are Unsat, decided before any probe.
func TestRefuteDecidesWithoutProbing(t *testing.T) {
	x := expr.Sym(0)
	c := expr.Const
	cases := []struct {
		name string
		cs   []*expr.Expr
	}{
		{"reloaded word", []*expr.Expr{
			expr.ULt(x, c(0x100)),
			expr.Eq(c(0x1234), expr.ConcatBytes(
				expr.ZeroExt8(x), expr.ExtractByte(x, 1), expr.ExtractByte(x, 2), expr.ExtractByte(x, 3))),
		}},
		{"scaled index", []*expr.Expr{
			expr.ULt(expr.Add(c(0x1037c4), expr.Shl(expr.And(x, c(0xfff)), c(2))), c(0x1000)),
		}},
		{"known bits", []*expr.Expr{
			expr.Eq(expr.And(x, c(1)), c(0)),
			expr.Eq(expr.And(x, c(0xff)), c(0x33)),
		}},
		{"single-bit test", []*expr.Expr{
			expr.Ne(expr.And(x, c(4)), c(0)),
			expr.Eq(expr.And(x, c(0xf)), c(0x3)),
		}},
		{"bit and equality", []*expr.Expr{
			expr.Eq(x, c(0x10)),
			expr.Eq(expr.Lshr(x, c(4)), c(2)),
		}},
	}
	for _, tc := range cases {
		s := New()
		if res, _ := s.Check(tc.cs); res != Unsat {
			t.Errorf("%s: %v, want unsat", tc.name, res)
		}
		if s.Stats.Probes != 0 {
			t.Errorf("%s: %d probes, want 0", tc.name, s.Stats.Probes)
		}
	}
}

// randAbs returns a random reduced abstract value that contains v.
func randAbs(r *rand.Rand, v uint32) absVal {
	mask := r.Uint32() & r.Uint32()
	a := absVal{lo: v - min(v, r.Uint32()>>r.Intn(32)), hi: v + min(^v, r.Uint32()>>r.Intn(32)), val: v &^ mask, mask: mask}
	a, ok := a.reduce()
	if !ok {
		panic("reduce dropped a member")
	}
	return a
}

func (a absVal) has(v uint32) bool {
	return a.lo <= v && v <= a.hi && (v^a.val)&^a.mask == 0
}

// TestAbsOpsSound: every transfer function's result contains the concrete
// result for concrete operands drawn from its abstract inputs.
func TestAbsOpsSound(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pick := func() uint32 {
		switch r.Intn(3) {
		case 0:
			return uint32(r.Intn(300))
		case 1:
			return r.Uint32() >> r.Intn(32)
		}
		return r.Uint32()
	}
	b2u := func(b bool) uint32 {
		if b {
			return 1
		}
		return 0
	}
	for i := 0; i < 200000; i++ {
		x, y, k := pick(), pick(), uint32(r.Intn(32))
		a, b := randAbs(r, x), randAbs(r, y)
		for _, op := range []struct {
			name string
			got  absVal
			want uint32
		}{
			{"and", absAnd(a, b), x & y},
			{"or", absOr(a, b), x | y},
			{"add", absAdd(a, b), x + y},
			{"shl", absShl(a, k), x << k},
			{"lshr", absLshr(a, k), x >> k},
			{"eq", absEq(a, b), b2u(x == y)},
			{"ult", absULt(a, b), b2u(x < y)},
		} {
			got, ok := op.got.reduce()
			if !ok || !got.has(op.want) {
				t.Fatalf("%s(%#x in %+v, %#x in %+v, k=%d) = %#x, not in %+v (ok=%v)",
					op.name, x, a, y, b, k, op.want, got, ok)
			}
		}
	}
}

// TestCacheKeyKeepsDuplicateConstraints: a constraint that appears twice
// must not drop out of the cache key. Otherwise {a, a, b} and {b, c, c}
// share a key, and the second query gets the first one's answer.
func TestCacheKeyKeepsDuplicateConstraints(t *testing.T) {
	x := expr.Sym(0)
	lt100 := expr.ULt(x, expr.Const(100))
	eq := func(v uint32) *expr.Expr { return expr.Eq(x, expr.Const(v)) }

	t.Run("sat then sat", func(t *testing.T) {
		s := New()
		checkSat(t, s, []*expr.Expr{eq(5), eq(5), lt100})
		checkSat(t, s, []*expr.Expr{lt100, eq(7), eq(7)})
	})
	t.Run("unsat then sat", func(t *testing.T) {
		s := New()
		if res, _ := s.Check([]*expr.Expr{eq(200), eq(200), lt100}); res != Unsat {
			t.Fatalf("x==200 && x<100: %v, want unsat", res)
		}
		checkSat(t, s, []*expr.Expr{lt100, eq(50), eq(50)})
	})
}

// TestCacheHitReverifiesModel: a cached Sat model that does not satisfy
// the query (a key collision) is not returned; the query is solved.
func TestCacheHitReverifiesModel(t *testing.T) {
	s := New()
	cs := []*expr.Expr{expr.Eq(expr.Sym(0), expr.Const(9))}
	s.cache.put(hashConstraints(cs), cacheEntry{Sat, expr.Assignment{0: 4}})
	if m := checkSat(t, s, cs); m[0] != 9 {
		t.Errorf("model %v, want v0=9", m)
	}
	if s.Stats.CacheHits != 0 {
		t.Errorf("stale entry counted as a cache hit")
	}
}

// TestModelsDeterministic: fresh solvers answer the same query with the
// same model; the candidate order must not follow map iteration.
func TestModelsDeterministic(t *testing.T) {
	x := expr.Sym(0)
	cs := []*expr.Expr{expr.Or(expr.Eq(x, expr.Const(0x500)),
		expr.Or(expr.Eq(x, expr.Const(0x900)), expr.Eq(x, expr.Const(0x1300))))}
	seen := make(map[uint32]int)
	for i := 0; i < 200; i++ {
		seen[checkSat(t, New(), cs)[0]]++
	}
	if len(seen) != 1 {
		t.Errorf("200 fresh solvers gave %d different models: %v", len(seen), seen)
	}
}
