package solver

import (
	"testing"

	"repro/internal/expr"
)

// queryGen decodes fuzz bytes into constraints over two symbols. Reads past
// the end yield zeros, which decode to the simplest shapes, so every input
// decodes to a finite query.
type queryGen struct {
	b []byte
}

func (g *queryGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	v := g.b[0]
	g.b = g.b[1:]
	return v
}

func (g *queryGen) u16() uint32 { return uint32(g.byte()) | uint32(g.byte())<<8 }

// term decodes a word: a symbol, a constant, a mask, a constant shift or
// offset, or a byte-wise re-assembly (exact, byte-swapped, mixing two
// words, or the 2-byte form).
func (g *queryGen) term(depth int) *expr.Expr {
	op := g.byte() % 8
	if depth >= 3 {
		op %= 3
	}
	switch op {
	case 0, 1:
		return expr.Sym(expr.SymID(op))
	case 2:
		return expr.Const(g.u16())
	case 3:
		m := expr.Const(g.u16())
		return expr.And(m, g.term(depth+1))
	case 4:
		t := g.term(depth + 1)
		return expr.Shl(t, expr.Const(uint32(g.byte()%32)))
	case 5:
		t := g.term(depth + 1)
		return expr.Lshr(t, expr.Const(uint32(g.byte()%32)))
	case 6:
		k := expr.Const(g.u16())
		return expr.Add(k, g.term(depth+1))
	}
	t := g.term(depth + 1)
	b := func(i uint) *expr.Expr { return expr.ExtractByte(t, i) }
	switch g.byte() % 4 {
	case 0:
		return expr.ConcatBytes(b(0), b(1), b(2), b(3))
	case 1:
		return expr.ConcatBytes(b(1), b(0), b(2), b(3))
	case 2:
		u := g.term(depth + 1)
		return expr.ConcatBytes(b(0), b(1), b(2), expr.ExtractByte(u, 3))
	}
	return expr.ConcatBytes2(b(0), b(1))
}

// cond decodes a boolean: a comparison, a negation, or a conjunction or
// disjunction of booleans.
func (g *queryGen) cond(depth int) *expr.Expr {
	op := g.byte() % 6
	if depth >= 2 {
		op %= 3
	}
	switch op {
	case 0:
		x := g.term(0)
		return expr.Eq(x, g.term(0))
	case 1:
		x := g.term(0)
		return expr.ULt(x, g.term(0))
	case 2:
		x := g.term(0)
		return expr.SLt(x, g.term(0))
	case 3:
		return expr.LogicalNot(g.cond(depth + 1))
	case 4:
		x := g.cond(depth + 1)
		return expr.And(x, g.cond(depth+1))
	}
	x := g.cond(depth + 1)
	return expr.Or(x, g.cond(depth+1))
}

// FuzzSolverSound checks the solver against brute force: both symbols are
// confined to 8 bits, so all 65536 assignments decide the query. Unsat must
// mean no assignment satisfies it, and a Sat model must satisfy every
// constraint. Unknown is allowed.
func FuzzSolverSound(f *testing.F) {
	// A stored word read back and compared out of range:
	// 0x1234 == ConcatBytes(bytes of v0).
	f.Add([]byte{0, 0, 2, 0x34, 0x12, 7, 0, 0})
	// A scaled index against a bound: 0x37c4 + (v0&0xfff)<<2 < 0x1000.
	f.Add([]byte{0, 1, 6, 0xc4, 0x37, 4, 3, 0xff, 0x0f, 0, 2, 2, 0x00, 0x10})
	// Conflicting known bits: (v0&1) == 0 && (v0&0xff) == 0x33.
	f.Add([]byte{1, 0, 2, 0, 0, 3, 1, 0, 0, 0, 2, 0x33, 0, 3, 0xff, 0, 0})
	// A satisfiable mix over both symbols.
	f.Add([]byte{2, 1, 6, 5, 0, 1, 2, 9, 0, 4, 0, 0, 7, 1, 3, 5, 1, 2, 2, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		g := &queryGen{b: data}
		x, y := expr.Sym(0), expr.Sym(1)
		cs := []*expr.Expr{expr.ULt(x, expr.Const(256)), expr.ULt(y, expr.Const(256))}
		for n := 1 + int(g.byte()%5); n > 0; n-- {
			cs = append(cs, g.cond(0))
		}

		res, model := New().Check(cs)
		switch res {
		case Sat:
			for _, c := range cs {
				if expr.Eval(c, model) == 0 {
					t.Fatalf("model %v violates %v", model, c)
				}
			}
		case Unsat:
			a := expr.Assignment{}
			for v := uint32(0); v < 1<<16; v++ {
				a[0], a[1] = v&0xFF, v>>8
				if satisfies(cs, a) {
					t.Fatalf("unsat, but %v satisfies %v", a, cs)
				}
			}
		}
	})
}
