package solver

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/expr"
)

func checkSat(t *testing.T, s *Solver, cs []*expr.Expr) expr.Assignment {
	t.Helper()
	res, m := s.Check(cs)
	if res != Sat {
		t.Fatalf("Check = %v, want sat (constraints: %v)", res, cs)
	}
	for _, c := range cs {
		if expr.Eval(c, m) == 0 {
			t.Fatalf("model %v does not satisfy %v", m, c)
		}
	}
	return m
}

func TestTrivial(t *testing.T) {
	s := New()
	if res, _ := s.Check([]*expr.Expr{expr.Const(1)}); res != Sat {
		t.Errorf("const true: %v", res)
	}
	if res, _ := s.Check([]*expr.Expr{expr.Const(0)}); res != Unsat {
		t.Errorf("const false: %v", res)
	}
	if res, _ := s.Check(nil); res != Sat {
		t.Errorf("empty set: %v", res)
	}
}

func TestSingleComparisons(t *testing.T) {
	s := New()
	x := expr.Sym(0)

	m := checkSat(t, s, []*expr.Expr{expr.Eq(x, expr.Const(42))})
	if m[0] != 42 {
		t.Errorf("eq model: %v", m)
	}

	m = checkSat(t, s, []*expr.Expr{expr.ULt(x, expr.Const(10))})
	if m[0] >= 10 {
		t.Errorf("ult model: %v", m)
	}

	m = checkSat(t, s, []*expr.Expr{expr.UGt(x, expr.Const(0xFFFFFF00))})
	if m[0] <= 0xFFFFFF00 {
		t.Errorf("ugt model: %v", m)
	}

	m = checkSat(t, s, []*expr.Expr{expr.SLt(x, expr.Const(0))})
	if int32(m[0]) >= 0 {
		t.Errorf("slt model: %v", m)
	}
}

func TestConjunction(t *testing.T) {
	s := New()
	x := expr.Sym(0)
	cs := []*expr.Expr{
		expr.UGe(x, expr.Const(100)),
		expr.ULt(x, expr.Const(200)),
		expr.Ne(x, expr.Const(150)),
	}
	m := checkSat(t, s, cs)
	if m[0] < 100 || m[0] >= 200 || m[0] == 150 {
		t.Errorf("model out of range: %v", m)
	}
}

func TestUnsatByInterval(t *testing.T) {
	s := New()
	x := expr.Sym(0)
	cs := []*expr.Expr{
		expr.ULt(x, expr.Const(10)),
		expr.UGt(x, expr.Const(20)),
	}
	if res, _ := s.Check(cs); res != Unsat {
		t.Errorf("interval contradiction: %v, want unsat", res)
	}
}

func TestUnsatEquality(t *testing.T) {
	s := New()
	x := expr.Sym(0)
	cs := []*expr.Expr{
		expr.Eq(x, expr.Const(5)),
		expr.Eq(x, expr.Const(6)),
	}
	if res, _ := s.Check(cs); res != Unsat {
		t.Errorf("conflicting equalities: %v, want unsat", res)
	}
}

func TestOffsetConstraints(t *testing.T) {
	s := New()
	x := expr.Sym(0)
	// x + 7 == 3 (mod 2^32) => x == 0xFFFFFFFC
	m := checkSat(t, s, []*expr.Expr{expr.Eq(expr.Add(x, expr.Const(7)), expr.Const(3))})
	if m[0] != 0xFFFFFFFC {
		t.Errorf("wraparound offset: %v", m)
	}
}

func TestTwoSymbols(t *testing.T) {
	s := New()
	x, y := expr.Sym(0), expr.Sym(1)
	cs := []*expr.Expr{
		expr.ULt(x, y),
		expr.ULt(y, expr.Const(5)),
		expr.UGt(x, expr.Const(1)),
	}
	m := checkSat(t, s, cs)
	if !(m[0] < m[1] && m[1] < 5 && m[0] > 1) {
		t.Errorf("two-symbol model: %v", m)
	}
}

func TestMaskedConstraint(t *testing.T) {
	s := New()
	x := expr.Sym(0)
	// (x & 0xFF) == 0x7F
	m := checkSat(t, s, []*expr.Expr{expr.Eq(expr.And(x, expr.Const(0xFF)), expr.Const(0x7F))})
	if m[0]&0xFF != 0x7F {
		t.Errorf("mask model: %v", m)
	}
	// (x & 0xFF) == 0x1FF is unsat
	res, _ := s.Check([]*expr.Expr{expr.Eq(expr.And(x, expr.Const(0xFF)), expr.Const(0x1FF))})
	if res != Unsat {
		t.Errorf("impossible mask: %v, want unsat", res)
	}
}

func TestBranchBothWays(t *testing.T) {
	// The central DDT workload: given a path condition, check both the taken
	// and not-taken branch refinements.
	s := New()
	x := expr.Sym(0)
	path := []*expr.Expr{expr.ULt(x, expr.Const(100))}
	cond := expr.Eq(x, expr.Const(42))

	taken := append(append([]*expr.Expr{}, path...), cond)
	not := append(append([]*expr.Expr{}, path...), expr.LogicalNot(cond))
	checkSat(t, s, taken)
	m := checkSat(t, s, not)
	if m[0] == 42 || m[0] >= 100 {
		t.Errorf("negated-branch model: %v", m)
	}
}

func TestCaching(t *testing.T) {
	s := New()
	x := expr.Sym(0)
	cs := []*expr.Expr{expr.ULt(x, expr.Const(10))}
	s.Check(cs)
	q0 := s.Stats.Queries
	h0 := s.Stats.CacheHits
	s.Check(cs)
	if s.Stats.Queries != q0+1 || s.Stats.CacheHits != h0+1 {
		t.Errorf("expected cache hit: %+v", s.Stats)
	}
}

func TestCachedModelIsCopied(t *testing.T) {
	s := New()
	x := expr.Sym(0)
	cs := []*expr.Expr{expr.Eq(x, expr.Const(9))}
	_, m1 := s.Check(cs)
	m1[0] = 77 // mutate caller copy
	_, m2 := s.Check(cs)
	if m2[0] != 9 {
		t.Errorf("cache returned aliased model: %v", m2)
	}
}

func TestFeasibleAndModel(t *testing.T) {
	s := New()
	x := expr.Sym(0)
	if res, _ := s.Check([]*expr.Expr{expr.ULt(x, expr.Const(2))}); res != Sat {
		t.Errorf("x < 2 unsigned: %v, want sat", res)
	}
	if res, _ := s.Check([]*expr.Expr{expr.ULt(x, expr.Const(0))}); res != Unsat {
		t.Errorf("x < 0 unsigned: %v, want unsat", res)
	}
	if m := s.Model([]*expr.Expr{expr.Eq(x, expr.Const(3))}); m == nil || m[0] != 3 {
		t.Errorf("Model = %v", m)
	}
	if m := s.Model([]*expr.Expr{expr.Const(0)}); m != nil {
		t.Errorf("Model of false = %v, want nil", m)
	}
}

func TestBooleanCombinations(t *testing.T) {
	s := New()
	x := expr.Sym(0)
	a := expr.ULt(x, expr.Const(10))
	b := expr.UGt(x, expr.Const(4))
	// a AND b
	m := checkSat(t, s, []*expr.Expr{expr.And(a, b)})
	if !(m[0] < 10 && m[0] > 4) {
		t.Errorf("and model: %v", m)
	}
	// NOT(a OR b) == x >= 10 && x <= 4: unsat
	res, _ := s.Check([]*expr.Expr{expr.LogicalNot(expr.Or(a, b))})
	if res != Unsat {
		t.Errorf("not(or): %v, want unsat", res)
	}
}

func TestDriverStyleMulticastBound(t *testing.T) {
	// The RTL8029 MaximumMulticastList bug shape: registry value used as an
	// array index with capacity 8; the buggy path requires value >= 8.
	s := New()
	v := expr.Sym(0)
	oob := []*expr.Expr{expr.UGe(v, expr.Const(8))}
	m := checkSat(t, s, oob)
	if m[0] < 8 {
		t.Errorf("oob model: %v", m)
	}
	ok := []*expr.Expr{expr.ULt(v, expr.Const(8))}
	m = checkSat(t, s, ok)
	if m[0] >= 8 {
		t.Errorf("in-bounds model: %v", m)
	}
}

func TestManySymbolsPacketBytes(t *testing.T) {
	// Packet-style constraints: 8 independent symbolic bytes, each bounded.
	s := New()
	var cs []*expr.Expr
	for i := 0; i < 8; i++ {
		b := expr.Sym(expr.SymID(i))
		cs = append(cs, expr.ULt(b, expr.Const(256)))
	}
	cs = append(cs, expr.Eq(expr.Sym(0), expr.Const(0x45))) // "IPv4 header"
	m := checkSat(t, s, cs)
	if m[0] != 0x45 {
		t.Errorf("packet model: %v", m)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := fullInterval()
	if iv.empty() {
		t.Fatal("full interval empty")
	}
	iv = iv.clampMax(10).clampMin(5)
	if iv.lo != 5 || iv.hi != 10 {
		t.Fatalf("clamped interval = %+v", iv)
	}
	if iv.exclude(5).lo != 6 {
		t.Errorf("exclude lo endpoint failed")
	}
	if iv.exclude(10).hi != 9 {
		t.Errorf("exclude hi endpoint failed")
	}
	if !iv.point(7).contains(7) || !iv.point(7).empty() == false && iv.point(7).lo != 7 {
		t.Errorf("point failed: %+v", iv.point(7))
	}
	if !iv.point(99).empty() {
		t.Errorf("point outside should be empty")
	}
	one := interval{3, 3}
	if !one.exclude(3).empty() {
		t.Errorf("exclude sole value should empty the interval")
	}
}

// TestQuickSatAnswersAreModels: whenever the solver answers Sat, the model
// must satisfy every constraint — the solver soundness invariant.
func TestQuickSatAnswersAreModels(t *testing.T) {
	s := New()
	r := rand.New(rand.NewSource(7))
	f := func(c1, c2 uint32, k uint32) bool {
		x := expr.Sym(0)
		y := expr.Sym(1)
		cs := []*expr.Expr{
			expr.ULt(x, expr.Const(c1|1)),
			expr.UGe(y, expr.Const(c2)),
			expr.Ne(expr.Add(x, expr.Const(k)), expr.Const(c2)),
		}
		res, m := s.Check(cs)
		if res == Sat {
			for _, c := range cs {
				if expr.Eval(c, m) == 0 {
					return false
				}
			}
		}
		_ = r
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUnsatIsSound: for single-symbol interval constraints we can
// decide satisfiability by brute force over a reduced domain; the solver
// must never answer Unsat when a witness exists.
func TestQuickUnsatIsSound(t *testing.T) {
	s := New()
	f := func(a, b uint8, eqv uint8) bool {
		lo, hi := uint32(a), uint32(b)
		x := expr.Sym(0)
		cs := []*expr.Expr{
			expr.UGe(x, expr.Const(lo)),
			expr.ULe(x, expr.Const(hi)),
			expr.Ne(x, expr.Const(uint32(eqv))),
		}
		res, _ := s.Check(cs)
		// Reference: witness exists iff [lo,hi] is nonempty and contains a
		// value != eqv.
		witness := false
		if lo <= hi {
			if lo != hi || lo != uint32(eqv) {
				witness = true
			}
		}
		if witness && res == Unsat {
			return false
		}
		if !witness && res == Sat {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	s := New()
	x := expr.Sym(0)
	s.Check([]*expr.Expr{expr.Eq(x, expr.Const(1))})
	s.Check([]*expr.Expr{expr.ULt(x, expr.Const(0))})
	if s.Stats.SatAnswers == 0 || s.Stats.UnsatAnswers == 0 {
		t.Errorf("stats not counted: %+v", s.Stats)
	}
}
