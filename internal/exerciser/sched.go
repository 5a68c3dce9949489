// Package exerciser provides DDT's driver-exercising machinery: the
// coverage-guided path scheduler (§4.3's EXE-style minimum-basic-block-count
// heuristic) and the coverage recorder behind the paper's Figures 2 and 3.
package exerciser

import "repro/internal/vm"

// Scheduler maintains the frontier of runnable execution states and a
// global per-block execution count the pick reads. It is not safe for
// concurrent use: one session's walk pushes, pops and records on one
// goroutine at a time.
type Scheduler struct {
	queue []*vm.State
	// blockCounts is the global execution counter per basic block leader.
	blockCounts map[uint32]uint64
	// MaxStates caps the frontier; beyond it, newly forked states are
	// dropped (coverage loss, never unsoundness). Set before use.
	MaxStates int
}

// NewScheduler returns an empty scheduler.
func NewScheduler(maxStates int) *Scheduler {
	return &Scheduler{
		blockCounts: make(map[uint32]uint64),
		MaxStates:   maxStates,
	}
}

// Push queues a runnable state; past the MaxStates cap the state is
// dropped.
func (s *Scheduler) Push(st *vm.State) {
	if st == nil || st.Status != vm.StatusRunning {
		return
	}
	if s.MaxStates > 0 && len(s.queue) >= s.MaxStates {
		return
	}
	s.queue = append(s.queue, st)
}

// Pop removes and returns the next state per the min-block-count pick, or
// nil when the frontier is empty.
func (s *Scheduler) Pop() *vm.State {
	if len(s.queue) == 0 {
		return nil
	}
	i := s.minBlockCount()
	st := s.queue[i]
	s.queue[i] = s.queue[len(s.queue)-1]
	s.queue[len(s.queue)-1] = nil
	s.queue = s.queue[:len(s.queue)-1]
	return st
}

// Len returns the frontier size.
func (s *Scheduler) Len() int {
	return len(s.queue)
}

// Record notes that a basic block executed (fed by the machine's OnBlock).
func (s *Scheduler) Record(pc uint32) {
	s.blockCounts[pc]++
}

// minBlockCount picks the state whose current block has been executed the
// fewest times globally (the first such state on a tie). It naturally
// avoids states stuck in polling loops — the exact rationale of §4.3.
func (s *Scheduler) minBlockCount() int {
	best := 0
	bestCount := s.blockCounts[s.queue[0].PC]
	for i := 1; i < len(s.queue); i++ {
		if c := s.blockCounts[s.queue[i].PC]; c < bestCount {
			best, bestCount = i, c
		}
	}
	return best
}
