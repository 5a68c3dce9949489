package expr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstFolding(t *testing.T) {
	cases := []struct {
		name string
		got  *Expr
		want uint32
	}{
		{"add", Add(Const(3), Const(4)), 7},
		{"add-wrap", Add(Const(0xFFFFFFFF), Const(2)), 1},
		{"sub", Sub(Const(10), Const(3)), 7},
		{"sub-wrap", Sub(Const(0), Const(1)), 0xFFFFFFFF},
		{"mul", Mul(Const(6), Const(7)), 42},
		{"udiv", UDiv(Const(42), Const(6)), 7},
		{"udiv-zero", UDiv(Const(42), Const(0)), 0xFFFFFFFF},
		{"urem", URem(Const(43), Const(6)), 1},
		{"urem-zero", URem(Const(43), Const(0)), 43},
		{"and", And(Const(0xF0F0), Const(0xFF00)), 0xF000},
		{"or", Or(Const(0xF0), Const(0x0F)), 0xFF},
		{"xor", Xor(Const(0xFF), Const(0x0F)), 0xF0},
		{"not", Not(Const(0)), 0xFFFFFFFF},
		{"shl", Shl(Const(1), Const(4)), 16},
		{"shl-mask", Shl(Const(1), Const(33)), 2},
		{"lshr", Lshr(Const(0x80000000), Const(31)), 1},
		{"ashr", Ashr(Const(0x80000000), Const(31)), 0xFFFFFFFF},
		{"eq-true", Eq(Const(5), Const(5)), 1},
		{"eq-false", Eq(Const(5), Const(6)), 0},
		{"ult", ULt(Const(3), Const(5)), 1},
		{"ult-f", ULt(Const(5), Const(3)), 0},
		{"slt-neg", SLt(Const(0xFFFFFFFF), Const(0)), 1},
		{"ite-t", Ite(Const(1), Const(11), Const(22)), 11},
		{"ite-f", Ite(Const(0), Const(11), Const(22)), 22},
		{"sext8", SignExt8(Const(0x80)), 0xFFFFFF80},
		{"sext16", SignExt16(Const(0x8000)), 0xFFFF8000},
	}
	for _, tc := range cases {
		if !tc.got.IsConst() {
			t.Errorf("%s: not folded to constant: %v", tc.name, tc.got)
			continue
		}
		if tc.got.ConstVal() != tc.want {
			t.Errorf("%s: got %#x, want %#x", tc.name, tc.got.ConstVal(), tc.want)
		}
	}
}

func TestIdentitySimplifications(t *testing.T) {
	x := Sym(0)
	cases := []struct {
		name string
		got  *Expr
		want *Expr
	}{
		{"add-zero", Add(x, Const(0)), x},
		{"mul-one", Mul(x, Const(1)), x},
		{"mul-zero", Mul(x, Const(0)), Const(0)},
		{"and-ones", And(x, Const(0xFFFFFFFF)), x},
		{"and-zero", And(x, Const(0)), Const(0)},
		{"and-self", And(x, x), x},
		{"or-zero", Or(x, Const(0)), x},
		{"or-self", Or(x, x), x},
		{"xor-self", Xor(x, x), Const(0)},
		{"xor-zero", Xor(x, Const(0)), x},
		{"sub-self", Sub(x, x), Const(0)},
		{"not-not", Not(Not(x)), x},
		{"shl-zero", Shl(x, Const(0)), x},
		{"eq-self", Eq(x, x), Const(1)},
		{"ult-self", ULt(x, x), Const(0)},
		{"ult-zero", ULt(x, Const(0)), Const(0)},
		{"ite-same", Ite(x, Const(7), Const(7)), Const(7)},
		{"udiv-one", UDiv(x, Const(1)), x},
		{"urem-one", URem(x, Const(1)), Const(0)},
	}
	for _, tc := range cases {
		if !Equal(tc.got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestCommutativeCanonicalization(t *testing.T) {
	x, y := Sym(0), Sym(1)
	pairs := [][2]*Expr{
		{Add(x, y), Add(y, x)},
		{Mul(x, y), Mul(y, x)},
		{And(x, y), And(y, x)},
		{Or(x, y), Or(y, x)},
		{Xor(x, y), Xor(y, x)},
		{Eq(x, y), Eq(y, x)},
		{Add(x, Const(5)), Add(Const(5), x)},
	}
	for i, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Errorf("pair %d: %v != %v", i, p[0], p[1])
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("pair %d: hashes differ", i)
		}
	}
}

func TestLogicalNot(t *testing.T) {
	x := Sym(0)
	cond := ULt(x, Const(10))
	n := LogicalNot(cond)
	nn := LogicalNot(n)
	if !Equal(nn, cond) {
		t.Errorf("double negation: got %v, want %v", nn, cond)
	}
	if v := Eval(n, Assignment{0: 20}); v != 1 {
		t.Errorf("not(20<10) = %d, want 1", v)
	}
	if v := Eval(n, Assignment{0: 5}); v != 0 {
		t.Errorf("not(5<10) = %d, want 0", v)
	}
}

func TestEqOffsetFolding(t *testing.T) {
	x := Sym(0)
	// (x + 5) == 12  should fold to x == 7
	e := Eq(Add(x, Const(5)), Const(12))
	want := Eq(x, Const(7))
	if !Equal(e, want) {
		t.Errorf("offset folding: got %v, want %v", e, want)
	}
}

func TestBooleanEqConstant(t *testing.T) {
	x := Sym(0)
	b := ULt(x, Const(4))
	if got := Eq(b, Const(2)); !got.IsFalse() {
		t.Errorf("bool == 2: got %v, want 0", got)
	}
	if got := Eq(b, Const(1)); !Equal(got, b) {
		t.Errorf("bool == 1: got %v, want %v", got, b)
	}
}

func TestExtractConcatBytes(t *testing.T) {
	w := Const(0xAABBCCDD)
	want := []uint32{0xDD, 0xCC, 0xBB, 0xAA}
	for i := uint(0); i < 4; i++ {
		b := ExtractByte(w, i)
		if !b.IsConst() || b.ConstVal() != want[i] {
			t.Errorf("byte %d: got %v, want %#x", i, b, want[i])
		}
	}
	re := ConcatBytes(Const(0xDD), Const(0xCC), Const(0xBB), Const(0xAA))
	if !re.IsConst() || re.ConstVal() != 0xAABBCCDD {
		t.Errorf("concat: got %v", re)
	}
}

// TestConcatBytesFold: re-assembling the bytes of one word yields the word
// (or its low half), and only when every byte matches.
func TestConcatBytesFold(t *testing.T) {
	x := Add(Const(0x1000), Sym(0))
	y := Sym(1)
	b := func(w *Expr, i uint) *Expr { return ExtractByte(w, i) }
	if got := ConcatBytes(ZeroExt8(x), b(x, 1), b(x, 2), b(x, 3)); got != x {
		t.Errorf("4 bytes: got %v, want %v", got, x)
	}
	if got, want := ConcatBytes2(ZeroExt8(x), b(x, 1)), And(Const(0xFFFF), x); !Equal(got, want) {
		t.Errorf("2 bytes: got %v, want %v", got, want)
	}

	shifted := Lshr(x, Const(8))
	for name, e := range map[string]*Expr{
		"swapped":    ConcatBytes(b(x, 1), b(x, 0), b(x, 2), b(x, 3)),
		"two words":  ConcatBytes(b(x, 0), b(x, 1), b(x, 2), b(y, 3)),
		"shifted":    ConcatBytes(b(x, 1), b(x, 2), b(x, 3), Const(0)),
		"swapped 2":  ConcatBytes2(b(x, 1), b(x, 0)),
		"two words2": ConcatBytes2(b(x, 0), b(y, 1)),
	} {
		if Equal(e, x) || Equal(e, y) || Equal(e, shifted) || e.Op != OpOr {
			t.Errorf("%s: folded to %v", name, e)
		}
	}
}

func TestSymbolTable(t *testing.T) {
	tab := NewSymbolTable()
	a := tab.Fresh("hw_read_0", OriginHardware, 0x1000, 5)
	b := tab.Fresh("registry:Foo", OriginRegistry, 0x2000, 9)
	if a.Sym == b.Sym {
		t.Fatal("Fresh returned duplicate ids")
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	ia := tab.Info(a.Sym)
	if ia.Name != "hw_read_0" || ia.Origin != OriginHardware || ia.PC != 0x1000 || ia.Seq != 5 {
		t.Errorf("Info(a) = %+v", ia)
	}
	if got := tab.Info(b.Sym).Origin.String(); got != "registry" {
		t.Errorf("origin string = %q", got)
	}
}

func TestSubstitute(t *testing.T) {
	x, y := Sym(0), Sym(1)
	e := Add(Mul(x, Const(3)), y)
	got := Substitute(e, Assignment{0: 4})
	want := Add(Const(12), y)
	if !Equal(got, want) {
		t.Errorf("partial substitute: got %v, want %v", got, want)
	}
	full := Substitute(e, Assignment{0: 4, 1: 8})
	if !full.IsConst() || full.ConstVal() != 20 {
		t.Errorf("full substitute: got %v, want 20", full)
	}
}

func TestSyms(t *testing.T) {
	e := Add(Sym(3), Mul(Sym(1), Ite(Sym(7), Sym(1), Const(2))))
	got := Syms(e)
	want := []SymID{1, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("Syms = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Syms = %v, want %v", got, want)
		}
	}
}

// randomExpr builds a random expression over nsyms symbols with the given
// node budget; used by the property tests below.
func randomExpr(r *rand.Rand, nsyms, depth int) *Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		if r.Intn(2) == 0 {
			return Const(uint32(r.Int63()))
		}
		return Sym(SymID(r.Intn(nsyms)))
	}
	x := randomExpr(r, nsyms, depth-1)
	y := randomExpr(r, nsyms, depth-1)
	z := randomExpr(r, nsyms, depth-1)
	switch r.Intn(16) {
	case 0:
		return Add(x, y)
	case 1:
		return Sub(x, y)
	case 2:
		return Mul(x, y)
	case 3:
		return UDiv(x, y)
	case 4:
		return URem(x, y)
	case 5:
		return And(x, y)
	case 6:
		return Or(x, y)
	case 7:
		return Xor(x, y)
	case 8:
		return Shl(x, y)
	case 9:
		return Lshr(x, y)
	case 10:
		return Ashr(x, y)
	case 11:
		return Eq(x, y)
	case 12:
		return ULt(x, y)
	case 13:
		return SLt(x, y)
	case 14:
		return Ite(x, y, z)
	default:
		return Not(x)
	}
}

// TestQuickSimplifierSoundness: smart-constructor simplification must not
// change the value of any expression under any assignment. We rebuild each
// random expression through the constructors (which is how it was built) and
// compare against a reference bottom-up evaluation.
func TestQuickSimplifierSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(a0, a1, a2 uint32) bool {
		a := Assignment{0: a0, 1: a1, 2: a2}
		for i := 0; i < 8; i++ {
			e := randomExpr(r, 3, 4)
			// Substitute must agree with Eval.
			sub := Substitute(e, a)
			if !sub.IsConst() {
				return false
			}
			if sub.ConstVal() != Eval(e, a) {
				t.Logf("expr %v: substitute %#x != eval %#x", e, sub.ConstVal(), Eval(e, a))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHashEquality: structural equality implies hash equality, and
// Equal is reflexive for random expressions.
func TestQuickHashEquality(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randomExpr(rr, 4, 5)
		rr2 := rand.New(rand.NewSource(seed))
		e2 := randomExpr(rr2, 4, 5)
		if !Equal(e, e2) {
			return false
		}
		if e.Hash() != e2.Hash() {
			return false
		}
		_ = r
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBoolValued: expressions reported boolean-valued must evaluate to
// 0 or 1 under random assignments.
func TestQuickBoolValued(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func(a0, a1 uint32) bool {
		for i := 0; i < 8; i++ {
			e := randomExpr(r, 2, 4)
			if isBoolValued(e) {
				v := Eval(e, Assignment{0: a0, 1: a1})
				if v > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	e := Add(Sym(2), Const(0x10))
	s := e.String()
	if s == "" || s == "<nil>" {
		t.Fatalf("String() = %q", s)
	}
	if Const(255).String() != "0xff" {
		t.Errorf("const rendering = %q", Const(255).String())
	}
}

func TestSizeAccounting(t *testing.T) {
	x := Sym(0)
	if x.Size() != 1 {
		t.Errorf("sym size = %d", x.Size())
	}
	e := Add(x, Sym(1))
	if e.Size() != 3 {
		t.Errorf("add size = %d, want 3", e.Size())
	}
}
