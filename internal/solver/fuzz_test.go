package solver

import (
	"testing"

	"repro/internal/expr"
)

// queryGen decodes fuzz bytes into constraints over two symbols, or over
// four when four is set. Reads past the end yield zeros, which decode to
// the simplest shapes, so every input decodes to a finite query.
type queryGen struct {
	b    []byte
	four bool
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
		if g.four {
			return expr.Sym(expr.SymID(g.byte() % 4))
		}
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

// FuzzBranchMatchesFullQuery checks Branch against the full query and
// brute force. Four symbols confined to 4 bits give 65536 assignments,
// which decide both sides. The path's model is any brute-force model of
// the path condition, chosen by the input, and each branch is also asked
// without a model. For each side, Branch must agree with a full Check
// whenever that is not Unknown, every model it returns must satisfy the
// path condition and the side, and every Unsat must be confirmed by brute
// force.
func FuzzBranchMatchesFullQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &queryGen{b: data, four: true}
		var pc []*expr.Expr
		for id := expr.SymID(0); id < 4; id++ {
			pc = append(pc, expr.ULt(expr.Sym(id), expr.Const(16)))
		}
		for n := int(g.byte() % 5); n > 0; n-- {
			pc = append(pc, g.cond(0))
		}
		cond := g.cond(0)
		if cond.IsConst() {
			return // the VM decides a constant branch without the solver
		}
		sides := [2]*expr.Expr{cond, expr.LogicalNot(cond)}
		pick := int(g.byte())

		// Brute force: the models of pc, and whether each side has one.
		var models []uint32
		var exists [2]bool
		a := expr.Assignment{}
		for v := uint32(0); v < 1<<16; v++ {
			a[0], a[1], a[2], a[3] = v&0xF, v>>4&0xF, v>>8&0xF, v>>12
			if !satisfies(pc, a) {
				continue
			}
			models = append(models, v)
			for i, side := range sides {
				if expr.Eval(side, a) != 0 {
					exists[i] = true
				}
			}
		}
		var full [2]Result
		for i, side := range sides {
			full[i], _ = New().Check(append(pc[:len(pc):len(pc)], side))
		}

		s := New()
		branch := func(mode string, model expr.Assignment, ok bool) {
			before := s.Stats.Queries
			tk, nt := s.Branch(pc, model, ok, sides[0], sides[1])
			if n := s.Stats.Queries - before; n != 2 {
				t.Fatalf("%s: branch counted %d queries, want 2", mode, n)
			}
			for i, got := range [2]Side{tk, nt} {
				cs := append(pc[:len(pc):len(pc)], sides[i])
				switch got.Res {
				case Sat:
					if !satisfies(cs, got.Model) {
						t.Fatalf("%s side %d: model %v violates %v", mode, i, got.Model, cs)
					}
				case Unsat:
					if exists[i] {
						t.Fatalf("%s side %d: unsat, but brute force satisfies %v", mode, i, cs)
					}
				}
				if full[i] != Unknown && got.Res != full[i] {
					t.Fatalf("%s side %d: %v, full query %v on %v", mode, i, got.Res, full[i], cs)
				}
			}
		}
		branch("no model", nil, false)
		if len(models) > 0 {
			v := models[pick*len(models)/256]
			branch("with model", expr.Assignment{0: v & 0xF, 1: v >> 4 & 0xF, 2: v >> 8 & 0xF, 3: v >> 12}, true)
		}
	})
}
