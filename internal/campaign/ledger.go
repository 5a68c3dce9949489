package campaign

// Ledger is one (entry, phase) budget-and-occupancy ledger. The pipelined
// symbolic frontier keeps one live Ledger per workload phase; the
// barriered frontier fills one per phase as each barrier completes. All
// fields are guarded by the owning Runner's coordinator lock (mutate them
// inside Frontier methods or Runner.Locked).
type Ledger struct {
	// Name labels the ledger (the phase or entry-point name).
	Name string
	// SeedsIn counts bases invoked (or queued to be invoked) into this
	// phase.
	SeedsIn int
	// PendingSeeds counts seeds waiting in the work queue.
	PendingSeeds int
	// Expanding counts seeds currently being expanded into invocation
	// states.
	Expanding int
	// Queued counts states waiting in the frontier.
	Queued int
	// InFlight counts states currently being stepped by a worker.
	InFlight int
	// Exited counts completed paths, charged against the per-phase
	// MaxPathsPerEntry budget.
	Exited int
	// Succeeded counts paths that exited successfully.
	Succeeded int
	// Promoted counts successes seeded onward, charged against the
	// per-phase KeepStates budget.
	Promoted int
	// PeakInFlight is the high-water mark of InFlight.
	PeakInFlight int
	// PeakQueued is the high-water mark of Queued.
	PeakQueued int
	// Done marks the ledger drained: no activity remains and none can be
	// produced for it.
	Done bool
}

// Activity counts everything that can still produce work for this ledger.
func (l *Ledger) Activity() int {
	return l.PendingSeeds + l.Expanding + l.Queued + l.InFlight
}

// AddQueued books n states entering the frontier and tracks the peak.
func (l *Ledger) AddQueued(n int) {
	l.Queued += n
	if l.Queued > l.PeakQueued {
		l.PeakQueued = l.Queued
	}
}

// BeginFlight moves one state from queued to in flight and tracks the peak.
func (l *Ledger) BeginFlight() {
	l.InFlight++
	if l.InFlight > l.PeakInFlight {
		l.PeakInFlight = l.InFlight
	}
}

// AllDone reports whether every ledger in the set has drained.
func AllDone(ls []*Ledger) bool {
	for _, l := range ls {
		if !l.Done {
			return false
		}
	}
	return true
}
