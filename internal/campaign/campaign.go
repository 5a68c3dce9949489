// Package campaign holds the pieces the exploration modes share: the
// finding key both modes deduplicate by (FindingKey), the fuzz campaign
// envelope (Options) and the uniform CLI flag surface (Flags).
//
// Each mode runs its own loop. The fuzzer's worker pool checks the
// envelope before every execution (fuzz.Fuzzer.Run). The symbolic engine
// walks a session on one goroutine (core.Engine.Explore), because its
// min-block-count pick needs the whole frontier; it takes its only stop
// condition, StopAtFirstBug, as a field of core.Options and its
// wall-clock bound from the caller's context.
package campaign

import "time"

// Options is the fuzz campaign envelope: workers, budgets, seed and stop
// condition. fuzz.Config embeds it.
type Options struct {
	// Workers is the number of parallel fuzzing goroutines; 0 or 1 runs
	// the campaign on a single worker.
	Workers int
	// Seed makes the campaign's random streams deterministic (the fuzzer
	// derives per-worker streams as Seed+workerID).
	Seed int64
	// MaxExecs bounds the total executions the campaign starts
	// (0: no execution bound).
	MaxExecs uint64
	// Duration bounds campaign wall-clock time (0: no time bound).
	Duration time.Duration
	// StopAtFirstBug ends the campaign as soon as it records its first
	// deduplicated crash — Driver Verifier's crash-on-first-failure
	// behaviour (§5.1).
	StopAtFirstBug bool
}
