package solver

import "repro/internal/expr"

// Side is the answer for one side of a symbolic branch: whether the path
// condition conjoined with the side's condition is satisfiable and, on
// Sat, a model of that conjunction.
type Side struct {
	Res   Result
	Model expr.Assignment
}

// Branch decides both sides of a symbolic branch on the path condition
// pc: pc ∧ cond and pc ∧ notCond. Each side counts as one query.
//
// When ok, model is a model of pc (unmapped symbols are zero). The side
// it satisfies is Sat with model itself, decided by one evaluation. The
// other side is solved only on its independent slice, the constraints of
// pc that share a symbol with it directly or through other constraints of
// the slice (KLEE's constraint independence). Every other constraint
// mentions only symbols outside the slice, so model overridden by the
// slice's model on the slice's symbols is a model of the whole side, and
// an Unsat slice makes the side Unsat. A slice that answers Unknown falls
// back to the full query, so no answer is worse than the full query's.
//
// Without a model both sides are full queries, and their models are the
// sides' models. Returned models are read-only: the satisfied side's model
// is model itself, which the caller may share.
func (s *Solver) Branch(pc []*expr.Expr, model expr.Assignment, ok bool, cond, notCond *expr.Expr) (taken, notTaken Side) {
	if !ok {
		return s.full(pc, cond), s.full(pc, notCond)
	}
	s.Stats.Queries += 2
	if expr.Eval(cond, model) != 0 {
		return Side{Sat, model}, s.other(pc, model, notCond)
	}
	return s.other(pc, model, cond), Side{Sat, model}
}

// full answers pc ∧ side with one counted query.
func (s *Solver) full(pc []*expr.Expr, side *expr.Expr) Side {
	res, m := s.Check(append(pc[:len(pc):len(pc)], side))
	return Side{res, m}
}

// other answers pc ∧ side, given a model of pc that falsifies side, on
// side's independent slice of pc; the caller counts the query.
func (s *Solver) other(pc []*expr.Expr, model expr.Assignment, side *expr.Expr) Side {
	slice, syms := independentSlice(pc, side)
	switch res, m := s.check(slice); res {
	case Sat:
		out := make(expr.Assignment, len(model)+len(syms))
		for id, v := range model {
			out[id] = v
		}
		for id := range syms {
			out[id] = m[id]
		}
		return Side{Sat, out}
	case Unsat:
		return Side{Unsat, nil}
	}
	res, m := s.check(append(pc[:len(pc):len(pc)], side))
	return Side{res, m}
}

// independentSlice returns the constraints of pc that share a symbol with
// side, directly or through other returned constraints, in pc order and
// followed by side, together with the symbols they mention.
func independentSlice(pc []*expr.Expr, side *expr.Expr) ([]*expr.Expr, map[expr.SymID]bool) {
	syms := make(map[expr.SymID]bool)
	expr.CollectSyms(side, syms)
	own := make([][]expr.SymID, len(pc))
	for i, c := range pc {
		own[i] = expr.Syms(c)
	}
	in := make([]bool, len(pc))
	n := 0
	for grew := true; grew; {
		grew = false
		for i, ids := range own {
			if in[i] || !sharesSym(ids, syms) {
				continue
			}
			in[i], grew = true, true
			n++
			for _, id := range ids {
				syms[id] = true
			}
		}
	}
	slice := make([]*expr.Expr, 0, n+1)
	for i, c := range pc {
		if in[i] {
			slice = append(slice, c)
		}
	}
	return append(slice, side), syms
}

func sharesSym(ids []expr.SymID, syms map[expr.SymID]bool) bool {
	for _, id := range ids {
		if syms[id] {
			return true
		}
	}
	return false
}
