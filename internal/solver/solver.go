// Package solver decides satisfiability of path constraints and produces
// concrete models (assignments of symbolic inputs), standing in for the
// Klee/STP stack the paper builds on.
//
// Device-driver path constraints live in a narrow fragment: comparisons of
// symbolic inputs (hardware register reads, registry values, packet bytes)
// against constants, simple linear offsets, bit masks, and boolean
// combinations thereof. The solver is sound always: a Sat answer comes with
// a model that is verified by evaluation (also when it comes from the
// cache), and an Unsat answer is only produced by sound reasoning.
//
// A query is decided in stages. Interval propagation narrows per-symbol
// unsigned ranges. A refutation pass then evaluates every constraint over
// ranges plus known bits and answers Unsat when one can only be 0; it
// never narrows what the later stages see. Exhaustive search over
// boundary candidates, greedy repair and randomized probing look for a
// model. Candidates come from the query's constants in sorted order, so
// the model a query gets is deterministic. Answers the solver cannot
// decide are reported as Unknown, which DDT's exerciser treats as "do not
// explore" (a coverage loss, never a false positive — matching the paper's
// accuracy discipline).
package solver

import (
	"slices"

	"repro/internal/expr"
)

// Result is the outcome of a satisfiability query.
type Result int

// Query outcomes.
const (
	Unknown Result = iota
	Sat
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Stats counts solver activity for benchmark reporting.
type Stats struct {
	Queries      uint64
	CacheHits    uint64
	SatAnswers   uint64
	UnsatAnswers uint64
	UnknownAns   uint64
	Probes       uint64
	// CacheEvictions counts query results the cache bound dropped.
	CacheEvictions uint64
}

// Solver answers satisfiability queries over sets of constraints. Each
// constraint is an expression required to evaluate to a non-zero value.
//
// A Solver is single-goroutine scratch: its query cache, probe RNG and
// Stats are unsynchronized, and every vm.Machine has its own Solver.
type Solver struct {
	cache cache
	rng   uint64
	// MaxProbes bounds randomized probing per query.
	MaxProbes int
	// MaxProduct bounds the exhaustive candidate cross-product.
	MaxProduct int
	Stats      Stats
}

// New returns a Solver with default limits and an empty query cache
// bounded to DefaultCacheSize results.
func New() *Solver {
	return &Solver{
		cache:      cache{entries: make(map[uint64]cacheEntry), max: DefaultCacheSize},
		rng:        0x9E3779B97F4A7C15,
		MaxProbes:  4096,
		MaxProduct: 8192,
	}
}

func (s *Solver) rand() uint64 {
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	return x
}

// Check decides whether the conjunction of cs is satisfiable. On Sat the
// returned assignment covers every symbol occurring in cs and makes every
// constraint non-zero (this is re-verified before returning).
func (s *Solver) Check(cs []*expr.Expr) (Result, expr.Assignment) {
	s.Stats.Queries++
	return s.check(cs)
}

// check is Check without counting the query: Branch counts each side once
// however many checks answer it.
func (s *Solver) check(cs []*expr.Expr) (Result, expr.Assignment) {
	// Fast path: constant constraints.
	live := cs[:0:0]
	for _, c := range cs {
		if c.IsConst() {
			if c.C == 0 {
				s.Stats.UnsatAnswers++
				return Unsat, nil
			}
			continue
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		s.Stats.SatAnswers++
		return Sat, expr.Assignment{}
	}

	key := hashConstraints(live)
	if e, ok := s.cache.get(key, live); ok {
		s.Stats.CacheHits++
		return e.res, cloneAssignment(e.model)
	}

	res, model := s.solve(live)
	s.Stats.CacheEvictions += s.cache.put(key, cacheEntry{res, cloneAssignment(model)})
	switch res {
	case Sat:
		s.Stats.SatAnswers++
	case Unsat:
		s.Stats.UnsatAnswers++
	default:
		s.Stats.UnknownAns++
	}
	return res, model
}

// Model returns a satisfying assignment for cs, or nil if none was found.
func (s *Solver) Model(cs []*expr.Expr) expr.Assignment {
	res, m := s.Check(cs)
	if res != Sat {
		return nil
	}
	return m
}

// hashConstraints keys a query by its constraints regardless of their
// order. Member hashes are mixed and summed: unlike a XOR, a sum does not
// cancel a constraint that appears twice (path constraints are not
// deduplicated), so {a, a, b} and {b} get different keys.
func hashConstraints(cs []*expr.Expr) uint64 {
	h := uint64(len(cs))
	for _, c := range cs {
		h += mix64(c.Hash())
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

func cloneAssignment(a expr.Assignment) expr.Assignment {
	if a == nil {
		return nil
	}
	out := make(expr.Assignment, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

func (s *Solver) solve(cs []*expr.Expr) (Result, expr.Assignment) {
	syms := collectSymbols(cs)

	// Interval propagation: sound narrowing of per-symbol unsigned ranges.
	ivs := make(map[expr.SymID]interval, len(syms))
	for _, id := range syms {
		ivs[id] = fullInterval()
	}
	for pass := 0; pass < 4; pass++ {
		changed := false
		for _, c := range cs {
			ok, ch := propagate(c, true, ivs)
			if !ok {
				return Unsat, nil
			}
			changed = changed || ch
		}
		if !changed {
			break
		}
	}

	// Abstract refutation: answers Unsat or nothing, and leaves ivs as is.
	if refute(cs, ivs) {
		return Unsat, nil
	}

	// Candidate construction.
	cands := s.candidates(cs, syms, ivs)

	// Exhaustive search over the candidate cross-product when small.
	product := 1
	for _, id := range syms {
		product *= len(cands[id])
		if product > s.MaxProduct {
			product = -1
			break
		}
	}
	if product > 0 {
		if m := exhaustive(cs, syms, cands); m != nil {
			return Sat, m
		}
		// The candidate sets cover every comparison boundary. For the
		// supported fragment exhaustive failure strongly suggests Unsat,
		// but wide multiplications etc. can escape the boundaries, so fall
		// through to probing before giving up.
	}

	// Greedy repair from each candidate seed, then randomized probing.
	if m := s.greedy(cs, syms, cands); m != nil {
		return Sat, m
	}
	if m := s.probe(cs, syms, ivs, cands); m != nil {
		return Sat, m
	}
	if product > 0 {
		// Exhaustive over boundary candidates + probing both failed; for
		// the interval-comparison fragment this is a sound Unsat because
		// candidate sets include all interval endpoints and comparison
		// boundaries. Declare Unsat only when every constraint is in the
		// recognized fragment; otherwise stay Unknown.
		if allRecognized(cs) {
			return Unsat, nil
		}
	}
	return Unknown, nil
}

func collectSymbols(cs []*expr.Expr) []expr.SymID {
	set := make(map[expr.SymID]bool)
	for _, c := range cs {
		expr.CollectSyms(c, set)
	}
	out := make([]expr.SymID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func satisfies(cs []*expr.Expr, a expr.Assignment) bool {
	for _, c := range cs {
		if expr.Eval(c, a) == 0 {
			return false
		}
	}
	return true
}

func exhaustive(cs []*expr.Expr, syms []expr.SymID, cands map[expr.SymID][]uint32) expr.Assignment {
	a := make(expr.Assignment, len(syms))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(syms) {
			return satisfies(cs, a)
		}
		id := syms[i]
		for _, v := range cands[id] {
			a[id] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	if rec(0) {
		return a
	}
	return nil
}

// greedy starts from seed assignments and repairs one symbol at a time,
// maximizing the number of satisfied constraints.
func (s *Solver) greedy(cs []*expr.Expr, syms []expr.SymID, cands map[expr.SymID][]uint32) expr.Assignment {
	count := func(a expr.Assignment) int {
		n := 0
		for _, c := range cs {
			if expr.Eval(c, a) != 0 {
				n++
			}
		}
		return n
	}
	seeds := []uint32{0, 1, 0xFFFFFFFF}
	for _, seed := range seeds {
		a := make(expr.Assignment, len(syms))
		for _, id := range syms {
			// Prefer an in-candidate seed value.
			vs := cands[id]
			a[id] = vs[0]
			for _, v := range vs {
				if v == seed {
					a[id] = v
					break
				}
			}
		}
		best := count(a)
		for round := 0; round < 8 && best < len(cs); round++ {
			improved := false
			for _, id := range syms {
				old := a[id]
				bestV, bestN := old, best
				for _, v := range cands[id] {
					a[id] = v
					if n := count(a); n > bestN {
						bestN, bestV = n, v
					}
				}
				a[id] = bestV
				if bestN > best {
					best = bestN
					improved = true
				}
			}
			if !improved {
				break
			}
		}
		if best == len(cs) {
			return a
		}
	}
	return nil
}

func (s *Solver) probe(cs []*expr.Expr, syms []expr.SymID, ivs map[expr.SymID]interval, cands map[expr.SymID][]uint32) expr.Assignment {
	a := make(expr.Assignment, len(syms))
	for try := 0; try < s.MaxProbes; try++ {
		s.Stats.Probes++
		for _, id := range syms {
			r := s.rand()
			var v uint32
			switch r % 4 {
			case 0: // candidate value
				vs := cands[id]
				v = vs[int(r>>8)%len(vs)]
			case 1: // small value
				v = uint32(r>>8) & 0xFF
			case 2: // medium value
				v = uint32(r>>8) & 0xFFFF
			default: // anywhere in the interval
				iv := ivs[id]
				span := uint64(iv.hi-iv.lo) + 1
				v = iv.lo + uint32(uint64(r>>8)%span)
			}
			iv := ivs[id]
			if !iv.contains(v) {
				v = iv.lo
			}
			a[id] = v
		}
		if satisfies(cs, a) {
			return a
		}
	}
	return nil
}

// candidates builds, per symbol, the set of "interesting" values: interval
// endpoints, comparison boundaries found anywhere in the constraints, and
// the usual suspects (0, 1, all-ones, sign boundaries), each with ±1
// neighbours, filtered to the symbol's interval.
func (s *Solver) candidates(cs []*expr.Expr, syms []expr.SymID, ivs map[expr.SymID]interval) map[expr.SymID][]uint32 {
	consts := make(map[uint32]bool)
	for _, c := range cs {
		collectConsts(c, consts)
	}
	// Walk the constants in sorted order: the pool order decides which
	// model the search finds first, so it must not follow map iteration.
	cl := make([]uint32, 0, len(consts))
	for v := range consts {
		cl = append(cl, v)
	}
	slices.Sort(cl)
	base := []uint32{0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF}
	var pool []uint32
	pool = append(pool, base...)
	for _, v := range cl {
		pool = append(pool, v, v+1, v-1)
	}
	// Pairwise differences catch linear offsets (Eq(c, Add(k, x)) already
	// folds in the simplifier, but Sub/And compositions may not).
	if len(cl) <= 24 {
		for i := range cl {
			for j := range cl {
				if i != j {
					pool = append(pool, cl[i]-cl[j])
				}
			}
		}
	}

	out := make(map[expr.SymID][]uint32, len(syms))
	for _, id := range syms {
		iv := ivs[id]
		seen := make(map[uint32]bool)
		var vs []uint32
		add := func(v uint32) {
			if iv.contains(v) && !seen[v] {
				seen[v] = true
				vs = append(vs, v)
			}
		}
		add(iv.lo)
		add(iv.hi)
		add(iv.lo + 1)
		add(iv.hi - 1)
		for _, v := range pool {
			add(v)
		}
		if len(vs) == 0 {
			vs = append(vs, iv.lo)
		}
		out[id] = vs
	}
	return out
}

func collectConsts(e *expr.Expr, out map[uint32]bool) {
	if e == nil {
		return
	}
	// Hash-consed expressions share subtrees; above the same threshold the
	// expr package uses for symbol collection, skip already-visited
	// pointers so shared subtrees are walked once. The collected value set
	// is identical either way.
	if e.Size() > 64 {
		collectConstsDAG(e, out, make(map[*expr.Expr]struct{}, 32))
		return
	}
	collectConstsTree(e, out)
}

func collectConstsTree(e *expr.Expr, out map[uint32]bool) {
	if e == nil {
		return
	}
	if e.Op == expr.OpConst {
		out[e.C] = true
		return
	}
	collectConstsTree(e.X, out)
	collectConstsTree(e.Y, out)
	collectConstsTree(e.Z, out)
}

func collectConstsDAG(e *expr.Expr, out map[uint32]bool, seen map[*expr.Expr]struct{}) {
	if e == nil {
		return
	}
	if e.Op == expr.OpConst {
		out[e.C] = true
		return
	}
	if _, ok := seen[e]; ok {
		return
	}
	seen[e] = struct{}{}
	collectConstsDAG(e.X, out, seen)
	collectConstsDAG(e.Y, out, seen)
	collectConstsDAG(e.Z, out, seen)
}
