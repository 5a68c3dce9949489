// Package campaign is the single campaign-runner core shared by every
// exploration mode in the tree. DDT is one loop — pick a state, execute,
// fork at injection points, record findings — and this package owns the
// loop's machinery exactly once: the condvar-coordinated worker pool with
// context-based cancellation (Runner), the campaign envelope configuration
// embedded by every mode's options (Options), fleet-safe finding
// deduplication (Findings), and the uniform CLI flag surface (Flags).
//
// The exploration modes plug in as frontier policies: the barriered
// symbolic engine and the coverage-guided fuzzer are each a one-method
// Frontier plus an executor callback over one Runner. New frontiers —
// distributed, directed — slot in the same way and inherit the pool,
// budgets, stop conditions, and cancellation for free.
package campaign

import (
	"time"

	"repro/internal/exerciser"
)

// Options is the campaign execution envelope shared by every mode. The
// mode-specific option structs (core.Options, fuzz.Config, ddt.Config)
// embed it, so workers, budgets, seeds, and stop conditions are configured
// the same way — and mean the same thing — whether the campaign explores
// symbolically or concretely.
type Options struct {
	// Workers is the number of parallel campaign workers; 0 or 1 runs the
	// campaign on a single worker. The symbolic engine always walks a
	// session with one worker and ignores it.
	Workers int
	// Seed makes the campaign's random streams deterministic (the fuzzer
	// derives per-worker streams as Seed+workerID). Frontiers without
	// randomness ignore it; directed/mutation frontiers must honor it.
	Seed int64
	// MaxExecs bounds the total work items the runner hands out
	// (0: no item bound). For the fuzzer one item is one execution.
	MaxExecs uint64
	// Duration bounds campaign wall-clock time (0: no time bound).
	Duration time.Duration
	// StopAtFirstBug ends the campaign as soon as the findings ledger
	// records its first finding — Driver Verifier's crash-on-first-failure
	// behaviour (§5.1).
	StopAtFirstBug bool
	// Coverage, when non-nil, receives the campaign's coverage: passing one
	// shared thread-safe recorder to several campaigns (symbolic or fuzz)
	// accumulates their coverage into one map. A symbolic engine records
	// into it directly. A fuzz campaign keeps its own map for novelty and
	// merges its blocks into this one, so a map another campaign already
	// filled does not starve its corpus.
	Coverage *exerciser.Coverage
}

// Normalized returns the options with the worker count clamped to >= 1.
func (o Options) Normalized() Options {
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// Summary is the runner-owned slice of a campaign report: the fields every
// mode's report shares, assembled in exactly one place.
type Summary struct {
	// Workers is the worker count the campaign actually ran with.
	Workers int
	// Started counts work items handed to workers.
	Started uint64
	// Retired counts work items completed.
	Retired uint64
	// Elapsed is the campaign wall-clock time.
	Elapsed time.Duration
	// Canceled reports whether the campaign ended by context cancellation
	// rather than by draining its work or budgets.
	Canceled bool
}
