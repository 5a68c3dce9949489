package exerciser

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/vm"
)

func runnable(id uint64, pc uint32) *vm.State {
	s := vm.NewState(id)
	s.PC = pc
	return s
}

func TestSchedulerMinBlockCount(t *testing.T) {
	s := NewScheduler(10)
	s.Record(0x100) // block 0x100 executed once
	s.Record(0x100)
	s.Record(0x200) // block 0x200 executed once
	s.Push(runnable(1, 0x100))
	s.Push(runnable(2, 0x200))
	s.Push(runnable(3, 0x300)) // never executed: most interesting
	if got := s.Pop().ID; got != 3 {
		t.Errorf("min-count popped %d, want 3 (unexecuted block)", got)
	}
	if got := s.Pop().ID; got != 2 {
		t.Errorf("second pop %d, want 2", got)
	}
}

// TestSchedulerPushReportsAcceptance: which pushes land in the frontier
// is observable through Len — a push under the cap is queued, one over the
// cap is dropped, and nil or non-runnable states are not queued.
func TestSchedulerPushReportsAcceptance(t *testing.T) {
	s := NewScheduler(1)
	s.Push(runnable(1, 0))
	if s.Len() != 1 {
		t.Errorf("first push: len=%d, want 1", s.Len())
	}
	s.Push(runnable(2, 0))
	if s.Len() != 1 {
		t.Errorf("over-cap push: len=%d, want 1", s.Len())
	}
	s.Push(nil)
	dead := runnable(3, 0)
	dead.Status = vm.StatusKilled
	s.Push(dead)
	if s.Len() != 1 {
		t.Errorf("nil/non-runnable pushes: len=%d, want 1", s.Len())
	}
	if got := s.Pop().ID; got != 1 || s.Len() != 0 {
		t.Errorf("popped %d leaving len=%d, want the first push and an empty frontier", got, s.Len())
	}
}

func TestSchedulerCapDropsStates(t *testing.T) {
	s := NewScheduler(2)
	s.Push(runnable(1, 0))
	s.Push(runnable(2, 0))
	s.Push(runnable(3, 0))
	if s.Len() != 2 {
		t.Errorf("len=%d, want 2", s.Len())
	}
}

func TestSchedulerIgnoresNonRunnable(t *testing.T) {
	s := NewScheduler(10)
	st := runnable(1, 0)
	st.Status = vm.StatusExited
	s.Push(st)
	s.Push(nil)
	if s.Len() != 0 {
		t.Errorf("len = %d", s.Len())
	}
	if s.Pop() != nil {
		t.Error("pop of empty queue")
	}
}

func TestCoverageSeries(t *testing.T) {
	c := NewCoverage(10)
	c.Visit(0x100, 5)
	c.Visit(0x100, 6) // revisit: no new point
	c.Visit(0x200, 9)
	if c.Blocks() != 2 {
		t.Errorf("blocks = %d", c.Blocks())
	}
	series := c.Series()
	if len(series) != 2 || series[0].Instructions != 5 || series[1].Blocks != 2 {
		t.Errorf("series = %v", series)
	}
	if c.Relative() != 0.2 {
		t.Errorf("relative = %v", c.Relative())
	}
	if !c.Covered(0x100) || c.Covered(0x300) {
		t.Error("covered-set wrong")
	}
	if got := c.CoveredBlocks(); len(got) != 2 || got[0] != 0x100 {
		t.Errorf("covered blocks = %v", got)
	}
	z := NewCoverage(0)
	z.Visit(1, 10)
	if z.Relative() != 0 {
		t.Error("relative with zero denominator must be 0")
	}
}

// TestQuickCoverageMonotone: the discovery series is nondecreasing in both
// time and block count, whatever the visit order.
func TestQuickCoverageMonotone(t *testing.T) {
	f := func(pcs []uint32) bool {
		c := NewCoverage(len(pcs) + 1)
		for i, pc := range pcs {
			c.Visit(pc, uint64(i))
		}
		s := c.Series()
		for i := 1; i < len(s); i++ {
			if s[i].Instructions < s[i-1].Instructions || s[i].Blocks != s[i-1].Blocks+1 {
				return false
			}
		}
		return c.Blocks() <= len(pcs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSchedulerNeverLoses: every pushed runnable state is eventually
// popped exactly once (cap disabled).
func TestQuickSchedulerNeverLoses(t *testing.T) {
	f := func(n uint8) bool {
		s := NewScheduler(0)
		want := int(n%64) + 1
		for i := 0; i < want; i++ {
			s.Push(runnable(uint64(i+1), uint32(i)*8))
		}
		seen := map[uint64]bool{}
		for s.Len() > 0 {
			st := s.Pop()
			if seen[st.ID] {
				return false
			}
			seen[st.ID] = true
		}
		return len(seen) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCoverageConcurrent: the shared coverage recorder must tolerate
// parallel visitors (fuzz workers + engine) without losing blocks or
// corrupting the series. Run under -race this is the data-race check.
func TestCoverageConcurrent(t *testing.T) {
	c := NewCoverage(1024)
	const workers = 8
	const perWorker = 512
	var wg sync.WaitGroup
	novel := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Overlapping pc ranges: every block contended by two workers.
				pc := uint32((w%4)*perWorker + i)
				if c.Visit(pc, uint64(w*perWorker+i)) {
					novel[w]++
				}
				c.Covered(pc)
				_ = c.Blocks()
			}
		}(w)
	}
	wg.Wait()
	want := 4 * perWorker
	if c.Blocks() != want {
		t.Fatalf("blocks = %d, want %d", c.Blocks(), want)
	}
	total := 0
	for _, n := range novel {
		total += n
	}
	if total != want {
		t.Fatalf("novelty credited %d times, want exactly %d (each block once)", total, want)
	}
	series := c.Series()
	if len(series) != want {
		t.Fatalf("series has %d points, want %d", len(series), want)
	}
	for i := 1; i < len(series); i++ {
		if series[i].Instructions < series[i-1].Instructions {
			t.Fatalf("series not ascending at %d", i)
		}
		if series[i].Blocks != series[i-1].Blocks+1 {
			t.Fatalf("series block counts not dense at %d", i)
		}
	}
}
