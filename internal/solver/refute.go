package solver

import (
	"math/bits"

	"repro/internal/expr"
)

// The refutation pass proves queries Unsat that interval propagation
// cannot: comparisons of a scaled or masked index against a bound, and
// constraints whose known bits contradict each other. It evaluates every
// constraint abstractly over a product of two domains — an unsigned range
// and a tristate number ("tnum": a value plus a mask of unknown bits, after
// Vishwanathan et al., CGO 2022) — and answers Unsat when some constraint
// can only be 0. It never narrows what the search sees: a query it cannot
// refute is solved exactly as without it, so Sat models do not depend on it.

// absVal over-approximates the values one expression takes: every value v
// lies in [lo, hi] and agrees with val on the bits clear in mask.
type absVal struct {
	lo, hi    uint32
	val, mask uint32
}

var (
	topVal  = absVal{lo: 0, hi: 0xFFFFFFFF, mask: 0xFFFFFFFF}
	boolVal = absVal{lo: 0, hi: 1, mask: 1}
)

func exactVal(c uint32) absVal { return absVal{lo: c, hi: c, val: c} }

func (a absVal) exact() bool { return a.lo == a.hi }

// reduce makes the range and the known bits agree with each other. It
// reports false when they admit no common value.
func (a absVal) reduce() (absVal, bool) {
	for i := 0; i < 2; i++ {
		if a.val > a.lo {
			a.lo = a.val
		}
		if m := a.val | a.mask; m < a.hi {
			a.hi = m
		}
		if a.lo > a.hi {
			return a, false
		}
		// Every value in [lo, hi] shares the bits above the highest bit
		// where lo and hi differ.
		free := uint32(1)<<bits.Len32(a.lo^a.hi) - 1
		if (a.lo^a.val)&^free&^a.mask != 0 {
			return a, false
		}
		a.val = a.lo&^free | a.val&free
		a.mask &= free
	}
	return a, true
}

func absAnd(a, b absVal) absVal {
	v := a.val & b.val
	return absVal{
		lo:   0,
		hi:   min(a.hi, b.hi),
		val:  v,
		mask: (a.val | a.mask) & (b.val | b.mask) &^ v,
	}
}

func absOr(a, b absVal) absVal {
	v := a.val | b.val
	hi := uint32(0xFFFFFFFF)
	if s := uint64(a.hi) + uint64(b.hi); s < 1<<32 {
		hi = uint32(s) // x|y <= x+y
	}
	return absVal{lo: max(a.lo, b.lo), hi: hi, val: v, mask: (a.mask | b.mask) &^ v}
}

func absAdd(a, b absVal) absVal {
	sm := a.mask + b.mask
	sv := a.val + b.val
	chi := (sm + sv) ^ sv
	mu := chi | a.mask | b.mask
	r := absVal{lo: 0, hi: 0xFFFFFFFF, val: sv &^ mu, mask: mu}
	if s := uint64(a.hi) + uint64(b.hi); s < 1<<32 {
		r.lo, r.hi = a.lo+b.lo, uint32(s)
	}
	return r
}

func absShl(a absVal, k uint32) absVal {
	r := absVal{lo: 0, hi: 0xFFFFFFFF, val: a.val << k, mask: a.mask << k}
	if a.hi <= 0xFFFFFFFF>>k {
		r.lo, r.hi = a.lo<<k, a.hi<<k
	}
	return r
}

func absLshr(a absVal, k uint32) absVal {
	return absVal{lo: a.lo >> k, hi: a.hi >> k, val: a.val >> k, mask: a.mask >> k}
}

func absEq(a, b absVal) absVal {
	if a.hi < b.lo || b.hi < a.lo || (a.val^b.val)&^(a.mask|b.mask) != 0 {
		return exactVal(0)
	}
	if a.exact() && b.exact() {
		return exactVal(1)
	}
	return boolVal
}

func absULt(a, b absVal) absVal {
	switch {
	case a.hi < b.lo:
		return exactVal(1)
	case a.lo >= b.hi:
		return exactVal(0)
	}
	return boolVal
}

// refuter evaluates the constraints of one query abstractly, memoizing per
// node so shared subexpressions are evaluated once.
type refuter struct {
	ivs  map[expr.SymID]interval
	kb   map[expr.SymID]absVal
	memo map[*expr.Expr]absVal
}

// refute reports whether cs is provably unsatisfiable given the symbol
// intervals ivs, which propagate has narrowed soundly for cs.
func refute(cs []*expr.Expr, ivs map[expr.SymID]interval) bool {
	r := refuter{ivs: ivs, kb: make(map[expr.SymID]absVal), memo: make(map[*expr.Expr]absVal)}
	for _, c := range cs {
		if !learnBits(c, true, r.kb) {
			return true
		}
	}
	for _, c := range cs {
		v, ok := r.eval(c)
		if !ok || v.hi == 0 {
			return true
		}
	}
	return false
}

// eval returns the abstract value of e, or false when e can take no value
// at all under the symbol facts (so the query has no model).
func (r *refuter) eval(e *expr.Expr) (absVal, bool) {
	switch e.Op {
	case expr.OpConst:
		return exactVal(e.C), true
	case expr.OpSym:
		a, ok := r.kb[e.Sym]
		if !ok {
			a = topVal
		}
		iv := r.ivs[e.Sym]
		a.lo, a.hi = iv.lo, iv.hi
		return a.reduce()
	}
	if a, ok := r.memo[e]; ok {
		return a, true
	}
	var x, y absVal
	ok := true
	if e.X != nil {
		x, ok = r.eval(e.X)
	}
	if ok && e.Y != nil {
		y, ok = r.eval(e.Y)
	}
	if !ok {
		return absVal{}, false
	}
	var a absVal
	switch e.Op {
	case expr.OpAnd:
		a = absAnd(x, y)
	case expr.OpOr:
		a = absOr(x, y)
	case expr.OpAdd:
		a = absAdd(x, y)
	case expr.OpShl:
		a = topVal
		if y.exact() {
			a = absShl(x, y.lo&31)
		}
	case expr.OpLshr:
		a = topVal
		if y.exact() {
			a = absLshr(x, y.lo&31)
		}
	case expr.OpEq:
		a = absEq(x, y)
	case expr.OpULt:
		a = absULt(x, y)
	default:
		a = topVal
	}
	a, ok = a.reduce()
	if !ok {
		return absVal{}, false
	}
	r.memo[e] = a
	return a, true
}

// learnBits records in kb the symbol bits that e fixes when it evaluates
// to truth: Eq(c, sym) fixes every bit, Eq(c, And(m, sym)) the bits of m,
// and a single-bit test And(bit, sym) != 0 that bit. It walks negations
// and the boolean and/or shapes propagate understands, and reports false
// when two facts disagree on a bit.
func learnBits(e *expr.Expr, truth bool, kb map[expr.SymID]absVal) bool {
	switch e.Op {
	case expr.OpEq:
		if !e.X.IsConst() {
			return true
		}
		c, y := e.X.C, e.Y
		if c <= 1 && isBoolShape(y) {
			return learnBits(y, truth == (c == 1), kb)
		}
		if y.Op == expr.OpSym {
			if truth {
				return fixBits(kb, y.Sym, 0xFFFFFFFF, c)
			}
			return true
		}
		if m, sym, ok := maskedSym(y); ok {
			switch {
			case truth:
				if c&^m != 0 {
					return false
				}
				return fixBits(kb, sym, m, c)
			case bits.OnesCount32(m) == 1 && (c == 0 || c == m):
				return fixBits(kb, sym, m, m^c)
			}
		}
	case expr.OpAnd:
		if m, sym, ok := maskedSym(e); ok {
			switch {
			case !truth:
				return fixBits(kb, sym, m, 0)
			case bits.OnesCount32(m) == 1:
				return fixBits(kb, sym, m, m)
			}
			return true
		}
		if truth && isBoolShapePair(e) {
			return learnBits(e.X, true, kb) && learnBits(e.Y, true, kb)
		}
	case expr.OpOr:
		if !truth && isBoolShapePair(e) {
			return learnBits(e.X, false, kb) && learnBits(e.Y, false, kb)
		}
	}
	return true
}

// maskedSym matches And(m, sym) with a constant mask m.
func maskedSym(e *expr.Expr) (m uint32, sym expr.SymID, ok bool) {
	if e.Op == expr.OpAnd && e.X.IsConst() && e.Y.Op == expr.OpSym {
		return e.X.C, e.Y.Sym, true
	}
	return 0, 0, false
}

// fixBits records that the bits of sym under mask m equal v, reporting
// false when an earlier fact fixed one of them to the other value.
func fixBits(kb map[expr.SymID]absVal, sym expr.SymID, m, v uint32) bool {
	a, ok := kb[sym]
	if !ok {
		a = topVal
	}
	if (a.val^v)&m&^a.mask != 0 {
		return false
	}
	a.val = a.val&^m | v&m
	a.mask &^= m
	kb[sym] = a
	return true
}
