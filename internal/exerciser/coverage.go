package exerciser

import (
	"sort"
	"sync"
)

// CoveragePoint is one sample of the coverage-versus-time curves of
// Figures 2 and 3. Time is deterministic simulated time: total executed
// instructions across the test session, convertible to "minutes" by a
// fixed calibration constant.
// Points are serialized in fuzz reports and manager trend series, so the
// tags are a stable wire format.
type CoveragePoint struct {
	Instructions uint64 `json:"instructions"`
	Blocks       int    `json:"blocks"`
}

// Coverage tracks the set of distinct basic blocks executed and the
// time series of their discovery. It is safe for concurrent use, so
// parallel fuzz workers and a symbolic engine can share one coverage map.
type Coverage struct {
	mu     sync.Mutex
	seen   map[uint32]bool
	series []CoveragePoint
	// TotalStatic is the denominator for relative coverage (the statically
	// discovered block count of the image).
	TotalStatic int
}

// NewCoverage returns an empty recorder with the given static denominator.
func NewCoverage(totalStatic int) *Coverage {
	return &Coverage{seen: make(map[uint32]bool), TotalStatic: totalStatic}
}

// Visit records a block execution at the given global instruction count,
// sampling the series only when a new block is discovered. It reports
// whether the block was new — the novelty signal coverage-guided corpus
// admission keys on.
func (c *Coverage) Visit(pc uint32, instructions uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen[pc] {
		return false
	}
	c.seen[pc] = true
	// Concurrent visitors may present slightly out-of-order instruction
	// counts; clamp so the series stays ascending.
	if n := len(c.series); n > 0 && instructions < c.series[n-1].Instructions {
		instructions = c.series[n-1].Instructions
	}
	c.series = append(c.series, CoveragePoint{Instructions: instructions, Blocks: len(c.seen)})
	return true
}

// Blocks returns the number of distinct blocks covered.
func (c *Coverage) Blocks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seen)
}

// Relative returns covered blocks as a fraction of the static total.
func (c *Coverage) Relative() float64 {
	if c.TotalStatic == 0 {
		return 0
	}
	return float64(c.Blocks()) / float64(c.TotalStatic)
}

// Series returns the discovery time series (ascending in time).
func (c *Coverage) Series() []CoveragePoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CoveragePoint(nil), c.series...)
}

// Merge folds a batch of covered block leaders into the map at the given
// instruction count, returning how many were new. This is the fleet-merge
// hook: the campaign manager folds each worker's reported block delta into
// one merged map, sampling the series once per batch that added coverage.
func (c *Coverage) Merge(pcs []uint32, instructions uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	added := 0
	for _, pc := range pcs {
		if !c.seen[pc] {
			c.seen[pc] = true
			added++
		}
	}
	if added > 0 {
		if n := len(c.series); n > 0 && instructions < c.series[n-1].Instructions {
			instructions = c.series[n-1].Instructions
		}
		c.series = append(c.series, CoveragePoint{Instructions: instructions, Blocks: len(c.seen)})
	}
	return added
}

// Covered reports whether a specific block leader was executed.
func (c *Coverage) Covered(pc uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen[pc]
}

// CoveredBlocks returns the sorted list of covered block leaders.
func (c *Coverage) CoveredBlocks() []uint32 {
	c.mu.Lock()
	out := make([]uint32, 0, len(c.seen))
	for pc := range c.seen {
		out = append(out, pc)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
