package campaign

import (
	"context"
	"flag"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunnerSingleWorkerOrder(t *testing.T) {
	items := []int{3, 1, 4, 1, 5, 9}
	var got, workers []int
	r := NewRunner(Options{Workers: 1, MaxExecs: uint64(len(items))}, func(w int) {
		got = append(got, items[len(got)])
		workers = append(workers, w)
	})
	r.Run(context.Background())

	if !slices.Equal(got, items) {
		t.Fatalf("exec order = %v, want %v", got, items)
	}
	if !slices.Equal(workers, []int{0, 0, 0, 0, 0, 0}) {
		t.Fatalf("workers = %v, want worker 0 only", workers)
	}
}

func TestRunnerWorkersClampedToOne(t *testing.T) {
	var calls []int
	r := NewRunner(Options{Workers: 0, MaxExecs: 2}, func(w int) { calls = append(calls, w) })
	r.Run(context.Background())
	if !slices.Equal(calls, []int{0, 0}) {
		t.Fatalf("calls by worker = %v, want [0 0]", calls)
	}
}

func TestRunnerMaxExecs(t *testing.T) {
	// An endless campaign: MaxExecs must be the thing that stops it.
	var calls atomic.Int64
	r := NewRunner(Options{Workers: 4, MaxExecs: 100}, func(w int) { calls.Add(1) })
	r.Run(context.Background())
	if n := calls.Load(); n != 100 {
		t.Fatalf("calls = %d, want exactly 100", n)
	}
}

func TestRunnerStopAtFirstBug(t *testing.T) {
	findings := NewFindings()
	execs := 0
	r := NewRunner(Options{Workers: 1, StopAtFirstBug: true}, func(w int) {
		execs++
		if execs == 3 && !findings.Admit("bug@0x1000") {
			t.Error("first Admit of bug@0x1000 reported a duplicate")
		}
	})
	r.BindFindings(findings)
	r.Run(context.Background())
	if execs != 3 {
		t.Fatalf("executed %d items, want 3 (stop after first finding)", execs)
	}
	if findings.Count() != 1 {
		t.Fatalf("findings ledger corrupted: count=%d", findings.Count())
	}
}

func TestRunnerContextCancel(t *testing.T) {
	// The tenth call cancels; workers already past their envelope check
	// finish their call, and no call starts after that.
	const workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	var calls, afterCancel atomic.Int64
	r := NewRunner(Options{Workers: workers}, func(w int) {
		if ctx.Err() != nil {
			afterCancel.Add(1)
		}
		if calls.Add(1) == 10 {
			cancel()
		}
	})
	done := make(chan struct{})
	go func() { r.Run(ctx); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
	if n := calls.Load(); n < 10 || n > 10+workers-1 {
		t.Fatalf("calls = %d, want 10 to %d", n, 10+workers-1)
	}
	if n := afterCancel.Load(); n > workers-1 {
		t.Fatalf("%d calls saw the canceled context, want at most %d in flight", n, workers-1)
	}
	final := calls.Load()
	time.Sleep(10 * time.Millisecond)
	if calls.Load() != final {
		t.Fatal("a call ran after Run returned")
	}
}

func TestRunnerDuration(t *testing.T) {
	var calls atomic.Int64
	r := NewRunner(Options{Workers: 2, Duration: 50 * time.Millisecond},
		func(w int) { calls.Add(1); time.Sleep(time.Millisecond) })
	start := time.Now()
	done := make(chan struct{})
	go func() { r.Run(context.Background()); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the duration bound")
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("elapsed = %v, want >= 50ms", elapsed)
	}
	if calls.Load() == 0 {
		t.Fatal("no calls within the duration bound")
	}
}

func TestFindingsDedup(t *testing.T) {
	f := NewFindings()
	if !f.Admit("a@1") || f.Admit("a@1") || !f.Admit("b@2") {
		t.Fatal("Admit dedup broken")
	}
	if f.Count() != 2 || !f.Admit("c@3") || f.Count() != 3 {
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
