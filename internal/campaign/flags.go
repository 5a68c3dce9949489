package campaign

import (
	"flag"
	"time"
)

// Uniform CLI defaults shared by every campaign-running command. One
// worker keeps campaigns deterministic by default; raise -workers for
// throughput.
const (
	// DefaultWorkers is the uniform -workers default.
	DefaultWorkers = 1
	// DefaultSeed is the uniform -seed default.
	DefaultSeed = 1
)

// FlagMask selects which of the uniform campaign flags a command
// registers. Commands that repurpose a name simply leave that bit out.
type FlagMask uint

const (
	// FlagWorkers registers -workers.
	FlagWorkers FlagMask = 1 << iota
	// FlagSeed registers -seed.
	FlagSeed
	// FlagTimeout registers -timeout.
	FlagTimeout

	// FlagsAll registers the full uniform surface.
	FlagsAll = FlagWorkers | FlagSeed | FlagTimeout
)

// Flags holds the parsed uniform campaign flags. Register the surface
// with RegisterFlags; a fuzz command folds the result into its envelope
// with Options, and other commands read the fields they registered.
type Flags struct {
	// Workers is the parsed -workers value.
	Workers int
	// Seed is the parsed -seed value.
	Seed int64
	// Timeout is the parsed -timeout value.
	Timeout time.Duration
}

// RegisterFlags registers the selected subset of the uniform campaign
// flag surface (-workers, -seed, -timeout) on fs with the
// uniform names and defaults, and returns the destination struct.
func RegisterFlags(fs *flag.FlagSet, mask FlagMask) *Flags {
	f := &Flags{Workers: DefaultWorkers, Seed: DefaultSeed}
	if mask&FlagWorkers != 0 {
		fs.IntVar(&f.Workers, "workers", DefaultWorkers, "parallel campaign workers (1 = deterministic sequential)")
	}
	if mask&FlagSeed != 0 {
		fs.Int64Var(&f.Seed, "seed", DefaultSeed, "campaign random seed")
	}
	if mask&FlagTimeout != 0 {
		fs.DurationVar(&f.Timeout, "timeout", 0, "campaign wall-clock bound (0 = none)")
	}
	return f
}

// Options folds the parsed flags into a fuzz campaign envelope.
func (f *Flags) Options() Options {
	return Options{
		Workers:  f.Workers,
		Seed:     f.Seed,
		Duration: f.Timeout,
	}
}
