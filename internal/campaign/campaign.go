// Package campaign holds what every exploration mode shares: the campaign
// envelope embedded by every mode's options (Options), the finding key
// and deduplication ledger (FindingKey, Findings), and the uniform CLI
// flag surface (Flags).
//
// It also holds the budgeted worker pool the fuzzer runs on (Runner):
// Options.Workers goroutines calling an executor callback until the
// envelope's budgets, stop condition or context end the campaign. The
// symbolic engine walks a session on one goroutine and checks the same
// envelope in its own loop (core.Engine.Explore), because its
// min-block-count pick needs the whole frontier.
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
	// derives per-worker streams as Seed+workerID). Modes without
	// randomness (the symbolic engine) ignore it.
	Seed int64
	// MaxExecs bounds the total work items the runner starts
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
