package fuzz

import (
	"repro/internal/vm"
)

// Persistent-mode executors (Options.Persist) skip re-driving the boot
// phases — boot state → DriverEntry → Initialize — for feeds whose boot
// prefix was already executed once. This is the concrete-fuzzer analogue of
// the paper's "fork at injection points" insight (§4.1.2): an initialized
// driver state is a complete system snapshot, so every execution sharing
// the boot prefix can fork from it instead of recomputing it. The probe
// numbers behind the design: on the evaluation drivers 95–100% of one fuzz
// execution's instructions are spent in DriverEntry+Initialize, while that
// boot consumes only a handful of feed words — so almost every mutant of a
// corpus feed shares its parent's boot prefix and can resume.
//
// Three snapshot stages cover the boot outcomes:
//
//   - stageBooted: DriverEntry returned success; resume walks the plan from
//     Initialize onward.
//   - stageInitialized: Initialize returned success; resume runs the data
//     path directly — the headline skip.
//   - stageTerminal: the boot prefix alone decided the whole execution (a
//     failed, killed, or non-success-status boot ends the workload with no
//     data path); resume returns the memoized result without executing a
//     single instruction. These dominate random mutants — most boots fail —
//     so memoizing them is where most of the throughput comes from.
//
// Crashing boots are never snapshotted or memoized: crash triage re-executes
// feeds for verification and minimization, and those replays must exercise
// the live path.
//
// Soundness: a snapshot is valid for a feed iff replaying the boot cold
// would be bit-identical, which snapshot.matches checks against the
// EFFECTIVE consumed streams (an exhausted data stream answers zeros and an
// exhausted fork stream answers the primary outcome, so comparison
// zero-extends; fork bytes are compared by their decision parity). Interrupt
// schedules additionally require the first unconsumed trigger to lie at or
// past the segment's last injection-eligible instant (eligBound) — an
// earlier trigger could have fired mid-boot (FromBug emits exactly such
// feeds) and must bypass the snapshot and re-run cold.
// Segments with no eligible instant — DriverEntry always, since no ISR is
// registered yet — accept any trigger.

// snapStage identifies where in the workload a snapshot was taken.
type snapStage uint8

const (
	stageBooted snapStage = iota
	stageInitialized
	stageTerminal
)

// snapshot is one frozen mid-workload replay point plus everything the
// executor needs to continue (or conclude) an execution from it.
type snapshot struct {
	stage snapStage
	// node is the plan node (a gate) the snapshot was taken after; resume
	// routes along its edges.
	node int
	// state is the frozen post-boot state; nil for stageTerminal.
	state *vm.State
	// owner identifies the executor (SnapFabric.register) that recorded the
	// snapshot, so lookups can split own-snapshot hits from cross-worker
	// shared hits. Zero for snapshots outside any fabric (unit tests).
	owner uint64

	// Boot-prefix identity. words/forkBits/irqs are the semantic cursors
	// (feedReader); data and forks hold the effective consumed streams up to
	// the recording feed's own length — every byte consumed past it read as
	// zero, so matching zero-extends both sides.
	words    int
	forkBits int
	irqs     int
	data     []byte
	forks    []byte // one decision parity bit per consumed fork decision
	irq      []uint64
	// eligBound is the exclusive upper bound on interrupt triggers that
	// could still have fired in the executed segment: one past the last
	// injection-eligible instant (ISR registered, no interrupt context,
	// IRQL below device level, injection budget left), or zero when no
	// instant was eligible — in which case any unconsumed trigger replays
	// identically, because a cold run could not have fired it either.
	eligBound uint64

	// Replay context captured alongside the state.
	steps   uint64 // logical instructions from execution start to here
	blocks  int    // distinct blocks the execution entered; stageTerminal only
	entries []string
	trace   *vm.TraceNode // final trace; stageTerminal only
}

// matches reports whether resuming f from this snapshot replays exactly
// what a cold execution of f would compute up to the snapshot point.
func (sn *snapshot) matches(f *Feed) bool {
	// Effective data prefix: 4*words bytes, zero-extended on both sides.
	n := 4 * sn.words
	limit := len(sn.data)
	if len(f.Data) > limit {
		limit = len(f.Data)
	}
	if limit > n {
		limit = n
	}
	for i := 0; i < limit; i++ {
		var a, b byte
		if i < len(sn.data) {
			a = sn.data[i]
		}
		if i < len(f.Data) {
			b = f.Data[i]
		}
		if a != b {
			return false
		}
	}
	// Effective fork decisions: parity per decision, primary outcome (0)
	// once the stream is exhausted.
	for j := 0; j < sn.forkBits; j++ {
		var a, b byte
		if j < len(sn.forks) {
			a = sn.forks[j]
		}
		if j < len(f.Forks) {
			b = f.Forks[j] & 1
		}
		if a != b {
			return false
		}
	}
	// Consumed interrupt triggers must match exactly, and the next pending
	// trigger (if any) must not have been able to fire during boot.
	if len(f.IRQ) < sn.irqs {
		return false
	}
	for k := 0; k < sn.irqs; k++ {
		if f.IRQ[k] != sn.irq[k] {
			return false
		}
	}
	if len(f.IRQ) > sn.irqs && f.IRQ[sn.irqs] < sn.eligBound {
		return false
	}
	return true
}

// samePrefix reports whether two snapshots cover the identical boot prefix
// at the same stage (cache dedup).
func (sn *snapshot) samePrefix(o *snapshot) bool {
	if sn.stage != o.stage || sn.words != o.words || sn.forkBits != o.forkBits || sn.irqs != o.irqs {
		return false
	}
	if len(sn.irq) != len(o.irq) {
		return false
	}
	for i := range sn.irq {
		if sn.irq[i] != o.irq[i] {
			return false
		}
	}
	// The recording feeds may differ in raw length; compare effectively.
	return sn.matches(&Feed{Data: o.data, Forks: o.forks, IRQ: o.irq})
}

// snapCacheMax bounds one fabric shard. Distinct boot prefixes are not
// few: every mutant that changes a consumed boot word or fork decision
// records one, and the single-worker 2,500-exec campaigns of perfbench's
// fuzz-hunt panel record 300–710 each. Recency eviction keeps the hot
// prefixes resident. The sharded process-wide store lives in fabric.go.
const snapCacheMax = 64
