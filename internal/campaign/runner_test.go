package campaign

import (
	"context"
	"flag"
	"sync"
	"testing"
	"time"
)

// listFrontier hands out a fixed list of ints in order.
type listFrontier struct {
	items   []int
	next    int
	retired []int
	idles   int
	refill  func(f *listFrontier) bool // Idle hook; nil = done
}

func (f *listFrontier) Next(w int) (int, Verdict) {
	if f.next < len(f.items) {
		it := f.items[f.next]
		f.next++
		return it, Dispatch
	}
	return 0, Drained
}

func (f *listFrontier) Retire(w int, item int) { f.retired = append(f.retired, item) }

func (f *listFrontier) Idle(w int) bool {
	f.idles++
	if f.refill != nil {
		return f.refill(f)
	}
	return true
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
	if len(f.retired) != 6 {
		t.Fatalf("frontier saw %d retirements, want 6", len(f.retired))
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
	total := 0
	for _, c := range s.PerWorker {
		total += c
	}
	if total != n {
		t.Fatalf("per-worker sum = %d, want %d", total, n)
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

func TestRunnerIdleRefill(t *testing.T) {
	// The frontier drains once, Idle refills it once, the second Idle ends
	// the campaign — the pipelined reap-fallback shape.
	f := &listFrontier{items: []int{1, 2}}
	f.refill = func(f *listFrontier) bool {
		if f.idles == 1 {
			f.items = append(f.items, 3, 4)
			return false
		}
		return true
	}
	var got []int
	r := NewRunner(Options{Workers: 1}, f, func(w, item int) { got = append(got, item) })
	r.Run(context.Background())
	if len(got) != 4 {
		t.Fatalf("executed %v, want 4 items across the refill", got)
	}
	if f.idles != 2 {
		t.Fatalf("Idle consulted %d times, want 2", f.idles)
	}
}

func TestRunnerWaitWake(t *testing.T) {
	// Work produced from an executor via Locked must wake parked workers.
	var mu sync.Mutex
	pending := []int{1}
	produced := 0
	f := frontierFunc(func(w int) (int, Verdict) {
		if len(pending) > 0 {
			it := pending[0]
			pending = pending[1:]
			return it, Dispatch
		}
		return 0, Drained
	})
	var r *Runner[int]
	var execs int
	r = NewRunner(Options{Workers: 4}, f, func(w, item int) {
		mu.Lock()
		execs++
		mu.Unlock()
		if item < 5 {
			r.Locked(func() {
				pending = append(pending, item+1)
				produced++
			})
		}
	})
	r.Run(context.Background())
	if execs != 5 || produced != 4 {
		t.Fatalf("execs=%d produced=%d, want 5 and 4", execs, produced)
	}
}

// frontierFunc adapts a Next func into a Frontier with no-op Retire and
// always-done Idle.
type frontierFunc func(w int) (int, Verdict)

func (f frontierFunc) Next(w int) (int, Verdict) { return f(w) }
func (f frontierFunc) Retire(w int, item int)    {}
func (f frontierFunc) Idle(w int) bool           { return true }

func TestFindingsDedup(t *testing.T) {
	f := NewFindings()
	if !f.Admit("a@1") || f.Admit("a@1") || !f.Admit("b@2") {
		t.Fatal("Admit dedup broken")
	}
	if f.Count() != 2 || !f.Seen("a@1") || f.Seen("c@3") {
		t.Fatalf("count=%d", f.Count())
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := &Ledger{Name: "Send"}
	l.AddQueued(3)
	l.BeginFlight()
	l.Queued--
	if l.Activity() != 3 || l.PeakQueued != 3 || l.PeakInFlight != 1 {
		t.Fatalf("ledger = %+v", l)
	}
	set := []*Ledger{l, {Name: "Halt", Done: true}}
	if AllDone(set) {
		t.Fatal("set helpers broken")
	}
	l.Queued, l.InFlight, l.Done = 0, 0, true
	if !AllDone(set) || l.Activity() != 0 {
		t.Fatal("set helpers broken after drain")
	}
}

func TestRegisterFlagsAndAliases(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterFlags(fs, FlagsAll)
	if err := fs.Parse([]string{"-workers", "8", "-pipeline", "-seed", "42", "-timeout", "3s"}); err != nil {
		t.Fatal(err)
	}
	if f.Workers != 8 || !f.Pipeline || f.Seed != 42 || f.Timeout != 3*time.Second {
		t.Fatalf("flags = %+v", f)
	}
	o := f.Options()
	if o.Workers != 8 || !o.Pipeline || o.Seed != 42 || o.Duration != 3*time.Second {
		t.Fatalf("options = %+v", o)
	}

	// Subset registration leaves unselected names free for the command.
	fs2 := flag.NewFlagSet("t2", flag.ContinueOnError)
	f2 := RegisterFlags(fs2, FlagWorkers|FlagSeed)
	if fs2.Lookup("pipeline") != nil || fs2.Lookup("timeout") != nil {
		t.Fatal("subset registration leaked flags")
	}
	if err := fs2.Parse([]string{"-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	if f2.Workers != 2 || f2.Seed != DefaultSeed {
		t.Fatalf("flags = %+v", f2)
	}
}
