// Package exerciser provides DDT's driver-exercising machinery: the
// coverage-guided path scheduler (§4.3's pluggable heuristics, defaulting
// to the EXE-style minimum-basic-block-count heuristic) and the coverage
// recorder behind the paper's Figures 2 and 3.
package exerciser

import (
	"sync"

	"repro/internal/vm"
)

// Heuristic picks the index of the next state to run from the queue.
//
// Pick is always invoked with the scheduler's lock held, so a heuristic
// reading the scheduler's BlockCounts (via the Counts accessor it was
// constructed with) needs no synchronization of its own.
type Heuristic interface {
	// Pick returns the index of the state to schedule next.
	Pick(queue []*vm.State) int
	// Name identifies the heuristic in reports.
	Name() string
}

// Scheduler maintains the frontier of runnable execution states and a
// global per-block execution count shared by the heuristic. It is safe for
// concurrent use: parallel exploration workers Push forked siblings, Pop
// their next state, and Record block executions from many goroutines; one
// mutex guards the queue, the counts, and heuristic selection together, so
// a heuristic sees a consistent snapshot while picking.
type Scheduler struct {
	mu        sync.Mutex
	queue     []*vm.State
	heuristic Heuristic
	// blockCounts is the global execution counter per basic block leader.
	blockCounts map[uint32]uint64
	// MaxStates caps the frontier; beyond it, newly forked states are
	// dropped (coverage loss, never unsoundness). Set before use.
	MaxStates int
	// dropped counts states discarded due to the cap.
	dropped uint64
}

// NewScheduler returns a scheduler with the default coverage heuristic.
func NewScheduler(maxStates int) *Scheduler {
	s := &Scheduler{
		blockCounts: make(map[uint32]uint64),
		MaxStates:   maxStates,
	}
	s.heuristic = &MinBlockCount{counts: s.blockCounts}
	return s
}

// SetHeuristic swaps the scheduling heuristic (they are pluggable and can
// be chosen per driver, §4.3). Not safe to call while exploration runs.
func (s *Scheduler) SetHeuristic(h Heuristic) { s.heuristic = h }

// HeuristicName returns the active heuristic's name.
func (s *Scheduler) HeuristicName() string { return s.heuristic.Name() }

// Push queues a runnable state; past the MaxStates cap the state is
// dropped and counted (see Dropped).
func (s *Scheduler) Push(st *vm.State) {
	if st == nil || st.Status != vm.StatusRunning {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.MaxStates > 0 && len(s.queue) >= s.MaxStates {
		s.dropped++
		return
	}
	s.queue = append(s.queue, st)
}

// Pop removes and returns the next state per the heuristic, or nil when
// the frontier is empty.
func (s *Scheduler) Pop() *vm.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return nil
	}
	i := s.heuristic.Pick(s.queue)
	st := s.queue[i]
	s.queue[i] = s.queue[len(s.queue)-1]
	s.queue[len(s.queue)-1] = nil
	s.queue = s.queue[:len(s.queue)-1]
	return st
}

// Len returns the frontier size.
func (s *Scheduler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Dropped returns how many states the MaxStates cap discarded.
func (s *Scheduler) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Record notes that a basic block executed (fed by the machine's OnBlock,
// possibly from many workers at once).
func (s *Scheduler) Record(pc uint32) {
	s.mu.Lock()
	s.blockCounts[pc]++
	s.mu.Unlock()
}

// BlockCount returns the global execution count of one block leader.
func (s *Scheduler) BlockCount(pc uint32) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blockCounts[pc]
}

// Counts exposes the per-block execution counters for custom heuristics.
// The map must only be read from Heuristic.Pick (which runs under the
// scheduler's lock).
func (s *Scheduler) Counts() map[uint32]uint64 { return s.blockCounts }

// MinBlockCount is the default heuristic: schedule the state whose current
// block has been executed the fewest times globally. It naturally avoids
// states stuck in polling loops — the exact rationale of §4.3.
type MinBlockCount struct {
	counts map[uint32]uint64
}

// NewMinBlockCount builds the default heuristic over a scheduler's counts
// (see Scheduler.Counts).
func NewMinBlockCount(counts map[uint32]uint64) *MinBlockCount {
	return &MinBlockCount{counts: counts}
}

// Name implements Heuristic.
func (*MinBlockCount) Name() string { return "min-block-count" }

// Pick implements Heuristic.
func (h *MinBlockCount) Pick(queue []*vm.State) int {
	best := 0
	bestCount := h.counts[queue[0].PC]
	for i := 1; i < len(queue); i++ {
		if c := h.counts[queue[i].PC]; c < bestCount {
			best, bestCount = i, c
		}
	}
	return best
}

// FIFO explores states breadth-first; useful as an ablation baseline.
type FIFO struct{}

// Name implements Heuristic.
func (FIFO) Name() string { return "fifo" }

// Pick implements Heuristic.
func (FIFO) Pick(queue []*vm.State) int { return 0 }

// LIFO explores depth-first; another ablation baseline.
type LIFO struct{}

// Name implements Heuristic.
func (LIFO) Name() string { return "lifo" }

// Pick implements Heuristic.
func (LIFO) Pick(queue []*vm.State) int { return len(queue) - 1 }
