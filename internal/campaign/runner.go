package campaign

import (
	"context"
	"sync"
	"time"
)

// Runner drives one campaign as a budgeted worker pool: Options.Workers
// goroutines each call an executor callback, one work item per call, until
// the envelope ends the campaign. The envelope (context cancellation,
// MaxExecs, Duration, StopAtFirstBug over a Findings ledger) is checked in
// exactly one place, before every call. The callback picks its own work.
//
// A single-worker run is fully deterministic: one goroutine checks the
// envelope and calls the callback in turn, with nothing in between.
type Runner struct {
	opts     Options
	exec     func(w int)
	findings *Findings

	mu      sync.Mutex
	started uint64
}

// NewRunner builds a runner. exec runs one work item on worker w; it is
// called concurrently from up to Options.Workers goroutines, so whatever it
// shares across workers must be safe for concurrent use.
func NewRunner(opts Options, exec func(w int)) *Runner {
	return &Runner{opts: opts.Normalized(), exec: exec}
}

// BindFindings attaches the findings ledger the StopAtFirstBug condition
// watches. Call before Run.
func (r *Runner) BindFindings(f *Findings) { r.findings = f }

// Run executes the campaign until a budget trips or the context is
// canceled. It returns only after every worker has quiesced: no executor
// callback is in flight once Run returns.
//
// A canceled context stops workers at their next envelope check, not in
// the middle of a call. The post-cancel quiescence contract is therefore
// the callback's: once ctx is done it must not admit new corpus entries or
// findings, so a canceled campaign's results are frozen when Run returns.
func (r *Runner) Run(ctx context.Context) {
	var deadline time.Time
	if r.opts.Duration > 0 {
		deadline = time.Now().Add(r.opts.Duration)
	}
	var wg sync.WaitGroup
	for w := 0; w < r.opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r.admit(ctx, deadline) {
				r.exec(w)
			}
		}(w)
	}
	wg.Wait()
}

// admit reports whether the envelope lets a worker start one more item,
// and counts the item when it does.
func (r *Runner) admit(ctx context.Context, deadline time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case ctx.Err() != nil,
		r.opts.StopAtFirstBug && r.findings != nil && r.findings.Count() > 0,
		r.opts.MaxExecs > 0 && r.started >= r.opts.MaxExecs,
		!deadline.IsZero() && time.Now().After(deadline):
		return false
	}
	r.started++
	return true
}
