package campaign

import (
	"context"
	"sync"
	"time"
)

// Verdict is a Frontier's answer to a worker asking for work.
type Verdict int

const (
	// Dispatch hands the returned item to the worker.
	Dispatch Verdict = iota
	// Drained reports the frontier empty. While other items are still
	// running the runner parks the worker (in-flight work may refill the
	// frontier; each finishing item unparks it); once nothing is running
	// the campaign ends.
	Drained
	// Stop ends the whole campaign now (a frontier-owned budget tripped).
	Stop
)

// Frontier is a campaign's work-selection policy. Next is invoked under
// the Runner's coordinator lock, so an implementation needs no locking of
// its own for state touched only there. Executors do their own result
// accounting; work an executor pushes reaches parked workers when its item
// finishes.
type Frontier[T any] interface {
	// Next picks the next work item for worker w.
	Next(w int) (T, Verdict)
}

// Runner drives one campaign: a pool of Options.Workers goroutines pulling
// items from a Frontier and running them through an executor callback,
// with condvar coordination, context cancellation, and the envelope stop
// conditions (MaxExecs, Duration, StopAtFirstBug over a Findings ledger)
// enforced in exactly one place.
//
// A single-worker run is fully deterministic: one goroutine pops items in
// frontier order with no coordination in between, so a frontier whose
// Next order is deterministic yields bit-identical campaigns.
type Runner[T any] struct {
	opts     Options
	frontier Frontier[T]
	exec     func(w int, item T)
	findings *Findings

	mu       sync.Mutex
	cond     *sync.Cond
	running  int
	started  uint64
	retired  uint64
	stopped  bool
	canceled bool
	deadline time.Time
	elapsed  time.Duration
}

// NewRunner builds a runner over the frontier. exec runs one work item;
// it is called outside the coordinator lock, concurrently from up to
// Options.Workers goroutines.
func NewRunner[T any](opts Options, frontier Frontier[T], exec func(w int, item T)) *Runner[T] {
	r := &Runner[T]{opts: opts.Normalized(), frontier: frontier, exec: exec}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// BindFindings attaches the findings ledger the StopAtFirstBug condition
// watches. Call before Run.
func (r *Runner[T]) BindFindings(f *Findings) { r.findings = f }

// Run executes the campaign until the frontier drains, a budget trips, or
// the context is canceled. It returns only after every worker has
// quiesced: no executor callback is in flight once Run returns.
func (r *Runner[T]) Run(ctx context.Context) {
	start := time.Now()
	r.mu.Lock()
	if r.opts.Duration > 0 {
		r.deadline = start.Add(r.opts.Duration)
	}
	r.mu.Unlock()

	// Watcher: wake parked workers on cancellation or deadline expiry.
	watchDone := make(chan struct{})
	defer close(watchDone)
	if ctx.Done() != nil || !r.deadline.IsZero() {
		go r.watch(ctx, watchDone)
	}

	var wg sync.WaitGroup
	for w := 0; w < r.opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				item, ok := r.next(ctx, w)
				if !ok {
					return
				}
				r.exec(w, item)
				r.retire()
			}
		}(w)
	}
	wg.Wait()
	r.mu.Lock()
	r.elapsed = time.Since(start)
	r.mu.Unlock()
}

// watch wakes the pool when the context is canceled or the deadline
// passes, so workers parked in cond.Wait observe the stop condition.
func (r *Runner[T]) watch(ctx context.Context, done <-chan struct{}) {
	var expire <-chan time.Time
	if !r.deadline.IsZero() {
		t := time.NewTimer(time.Until(r.deadline))
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-ctx.Done():
		r.cancel()
	case <-expire:
		r.mu.Lock()
		r.stopLocked()
		r.mu.Unlock()
	case <-done:
	}
}

// next hands worker w its next item, or false when the campaign is over.
func (r *Runner[T]) next(ctx context.Context, w int) (T, bool) {
	var zero T
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		switch {
		case r.stopped:
			return zero, false
		case ctx.Err() != nil:
			r.cancelLocked()
			return zero, false
		case r.opts.StopAtFirstBug && r.findings != nil && r.findings.Count() > 0:
			r.stopLocked()
			return zero, false
		case r.opts.MaxExecs > 0 && r.started >= r.opts.MaxExecs:
			r.stopLocked()
			return zero, false
		case !r.deadline.IsZero() && time.Now().After(r.deadline):
			r.stopLocked()
			return zero, false
		}
		item, v := r.frontier.Next(w)
		switch v {
		case Dispatch:
			r.running++
			r.started++
			return item, true
		case Stop:
			r.stopLocked()
			return zero, false
		case Drained:
			if r.running == 0 {
				r.stopLocked()
				return zero, false
			}
			r.cond.Wait()
		}
	}
}

// retire books one completed item and re-examines the pool.
func (r *Runner[T]) retire() {
	r.mu.Lock()
	r.running--
	r.retired++
	r.cond.Broadcast()
	r.mu.Unlock()
}

// stopLocked ends the campaign and releases every parked worker. Caller
// holds mu.
func (r *Runner[T]) stopLocked() {
	r.stopped = true
	r.cond.Broadcast()
}

// cancelLocked is stopLocked plus the cancellation mark. Caller holds mu.
func (r *Runner[T]) cancelLocked() {
	r.canceled = true
	r.stopLocked()
}

// cancel ends the campaign recording that the end came from cancellation
// rather than a drained frontier or an exhausted budget.
func (r *Runner[T]) cancel() {
	r.mu.Lock()
	r.cancelLocked()
	r.mu.Unlock()
}

// Canceled reports whether the campaign was canceled by its context, as
// opposed to ending naturally.
// Executor callbacks consult it to drop result admission after
// cancellation — the post-cancel quiescence contract: once a callback
// observes Canceled, it must not admit new corpus entries or findings, so
// campaign results are frozen the moment Run returns.
func (r *Runner[T]) Canceled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.canceled
}

// Summary assembles the runner-owned report fields. Valid after Run
// returns; mid-run it is a live snapshot.
func (r *Runner[T]) Summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Summary{
		Workers:  r.opts.Workers,
		Started:  r.started,
		Retired:  r.retired,
		Elapsed:  r.elapsed,
		Canceled: r.canceled,
	}
}
