package campaign

import (
	"context"
	"flag"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// listFrontier hands out a fixed list of ints in order.
type listFrontier struct {
	items []int
	next  int
}

func (f *listFrontier) Next(w int) (int, Verdict) {
	if f.next < len(f.items) {
		it := f.items[f.next]
		f.next++
		return it, Dispatch
	}
	return 0, Drained
}

func TestRunnerSingleWorkerOrder(t *testing.T) {
	f := &listFrontier{items: []int{3, 1, 4, 1, 5, 9}}
	var got []int
	r := NewRunner(Options{Workers: 1}, f, func(w, item int) { got = append(got, item) })
	r.Run(context.Background())

	want := []int{3, 1, 4, 1, 5, 9}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("exec order = %v, want %v", got, want)
		}
	}
	s := r.Summary()
	if s.Started != 6 || s.Retired != 6 || s.Workers != 1 || s.Canceled {
		t.Fatalf("summary = %+v", s)
	}
}

func TestRunnerWorkersClampedToOne(t *testing.T) {
	f := &listFrontier{items: []int{1, 2}}
	r := NewRunner(Options{Workers: 0}, f, func(w, item int) {})
	r.Run(context.Background())
	if s := r.Summary(); s.Workers != 1 || s.Retired != 2 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestRunnerParallelDrains(t *testing.T) {
	const n = 500
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	f := &listFrontier{items: items}
	var mu sync.Mutex
	seen := make(map[int]bool)
	r := NewRunner(Options{Workers: 8}, f, func(w, item int) {
		mu.Lock()
		seen[item] = true
		mu.Unlock()
	})
	r.Run(context.Background())
	if len(seen) != n {
		t.Fatalf("executed %d distinct items, want %d", len(seen), n)
	}
	s := r.Summary()
	if s.Retired != n {
		t.Fatalf("retired = %d, want %d", s.Retired, n)
	}
}

func TestRunnerMaxExecs(t *testing.T) {
	// An endless frontier: MaxExecs must be the thing that stops it.
	endless := frontierFunc(func(w int) (int, Verdict) { return 7, Dispatch })
	r := NewRunner(Options{Workers: 4, MaxExecs: 100}, endless, func(w, item int) {})
	r.Run(context.Background())
	if s := r.Summary(); s.Started != 100 || s.Retired != 100 {
		t.Fatalf("summary = %+v, want exactly 100 started and retired", s)
	}
}

func TestRunnerStopAtFirstBug(t *testing.T) {
	findings := NewFindings()
	endless := frontierFunc(func(w int) (int, Verdict) { return 0, Dispatch })
	r := NewRunner(Options{Workers: 1, StopAtFirstBug: true}, endless, nil)
	r.BindFindings(findings)
	execs := 0
	r.exec = func(w, item int) {
		execs++
		if execs == 3 {
			findings.Admit("bug@0x1000")
		}
	}
	r.Run(context.Background())
	if execs != 3 {
		t.Fatalf("executed %d items, want 3 (stop after first finding)", execs)
	}
	if !findings.Seen("bug@0x1000") || findings.Count() != 1 {
		t.Fatalf("findings ledger corrupted: count=%d", findings.Count())
	}
}

func TestRunnerContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	endless := frontierFunc(func(w int) (int, Verdict) { return 0, Dispatch })
	r := NewRunner(Options{Workers: 4}, endless, func(w, item int) {
		once.Do(func() { close(started) })
	})
	go func() {
		<-started
		cancel()
	}()
	done := make(chan struct{})
	go func() { r.Run(ctx); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
	if s := r.Summary(); !s.Canceled {
		t.Fatalf("summary = %+v, want Canceled", s)
	}
	if !r.Canceled() {
		t.Fatal("Canceled() = false after cancel")
	}
}

func TestRunnerDuration(t *testing.T) {
	endless := frontierFunc(func(w int) (int, Verdict) { return 0, Dispatch })
	r := NewRunner(Options{Workers: 2, Duration: 50 * time.Millisecond}, endless,
		func(w, item int) { time.Sleep(time.Millisecond) })
	done := make(chan struct{})
	go func() { r.Run(context.Background()); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the duration bound")
	}
	if s := r.Summary(); s.Elapsed < 50*time.Millisecond {
		t.Fatalf("elapsed = %v, want >= 50ms", s.Elapsed)
	}
}

func TestRunnerWaitWake(t *testing.T) {
	// Work a finishing item pushed must reach workers parked on the drained
	// frontier with no call from the executor: the item's retirement wakes
	// them. Item 1 runs while the other workers park, then pushes items 2
	// and 3 and returns. Items 2 and 3 each wait until the other has
	// started, so a parked worker must take one of them.
	const workers = 4
	var mu sync.Mutex // guards pending
	pending := []int{1}
	f := frontierFunc(func(w int) (int, Verdict) {
		mu.Lock()
		defer mu.Unlock()
		if len(pending) > 0 {
			it := pending[0]
			pending = pending[1:]
			return it, Dispatch
		}
		return 0, Drained
	})
	var execs, arrived atomic.Int64
	r := NewRunner(Options{Workers: workers}, f, func(w, item int) {
		execs.Add(1)
		if item == 1 {
			// Give the idle workers time to park on the drained frontier.
			time.Sleep(20 * time.Millisecond)
			mu.Lock()
			pending = append(pending, 2, 3)
			mu.Unlock()
			return
		}
		arrived.Add(1)
		for deadline := time.Now().Add(5 * time.Second); arrived.Load() < 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("item %d: no parked worker picked up the other refilled item", item)
				return
			}
		}
	})
	r.Run(context.Background())
	if execs.Load() != 3 {
		t.Fatalf("execs=%d, want 3", execs.Load())
	}
}

// frontierFunc adapts a Next func into a Frontier.
type frontierFunc func(w int) (int, Verdict)

func (f frontierFunc) Next(w int) (int, Verdict) { return f(w) }

func TestFindingsDedup(t *testing.T) {
	f := NewFindings()
	if !f.Admit("a@1") || f.Admit("a@1") || !f.Admit("b@2") {
		t.Fatal("Admit dedup broken")
	}
	if f.Count() != 2 || !f.Seen("a@1") || f.Seen("c@3") {
		t.Fatalf("count=%d", f.Count())
	}
}

func TestRegisterFlagsAndAliases(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterFlags(fs, FlagsAll)
	if err := fs.Parse([]string{"-workers", "8", "-seed", "42", "-timeout", "3s"}); err != nil {
		t.Fatal(err)
	}
	if f.Workers != 8 || f.Seed != 42 || f.Timeout != 3*time.Second {
		t.Fatalf("flags = %+v", f)
	}
	o := f.Options()
	if o.Workers != 8 || o.Seed != 42 || o.Duration != 3*time.Second {
		t.Fatalf("options = %+v", o)
	}

	// Subset registration leaves unselected names free for the command.
	fs2 := flag.NewFlagSet("t2", flag.ContinueOnError)
	f2 := RegisterFlags(fs2, FlagWorkers|FlagSeed)
	if fs2.Lookup("timeout") != nil {
		t.Fatal("subset registration leaked flags")
	}
	if err := fs2.Parse([]string{"-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	if f2.Workers != 2 || f2.Seed != DefaultSeed {
		t.Fatalf("flags = %+v", f2)
	}
}
