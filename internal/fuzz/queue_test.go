package fuzz

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestStackIsLIFO(t *testing.T) {
	var q stack[int]
	q.Push(1)
	q.Push(2)
	q.Push(3)
	for _, want := range []int{3, 2, 1} {
		got, ok := q.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("empty stack returned an item")
	}
}

// TestConcurrentPushPopNoLoss hammers the stack from multiple goroutines
// and verifies every pushed item is popped exactly once (run with -race).
func TestConcurrentPushPopNoLoss(t *testing.T) {
	const workers = 4
	const perWorker = 1000
	var q stack[int]

	var wg sync.WaitGroup
	got := make([]map[int]int, workers)
	for w := 0; w < workers; w++ {
		got[w] = make(map[int]int)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q.Push(w*perWorker + i)
				if item, ok := q.Pop(); ok {
					got[w][item]++
				}
			}
			// Drain whatever the other workers left.
			for {
				item, ok := q.Pop()
				if !ok {
					break
				}
				got[w][item]++
			}
		}(w)
	}
	wg.Wait()

	seen := make(map[int]int)
	for w := range got {
		for item, n := range got[w] {
			seen[item] += n
		}
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("popped %d distinct items, want %d", len(seen), workers*perWorker)
	}
	for item, n := range seen {
		if n != 1 {
			t.Fatalf("item %d popped %d times", item, n)
		}
	}
}

// TestPhaseTaggedConsumer: workers pop phase-tagged seeds and push each
// item's children, tagged with the next phase, back on the shared stack
// while others pop — the shape of a campaign's triage, where executing a
// feed queues its neighbors. Every seed of every phase is consumed exactly
// once, and a worker stops only when the stack is empty and no item is in
// flight.
func TestPhaseTaggedConsumer(t *testing.T) {
	type seed struct {
		phase int
		id    uint64
	}
	const (
		workers   = 4
		phases    = 5
		roots     = 64
		fanout    = 2 // children seeded into the next phase per item
		wantItems = roots * (1 + fanout + fanout*fanout + fanout*fanout*fanout + fanout*fanout*fanout*fanout)
	)
	var q stack[seed]
	var nextID atomic.Uint64
	for i := 0; i < roots; i++ {
		q.Push(seed{phase: 0, id: nextID.Add(1)})
	}

	var consumed atomic.Int64
	var inFlight atomic.Int64
	seen := make([]map[uint64]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		seen[w] = make(map[uint64]int)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				inFlight.Add(1)
				item, ok := q.Pop()
				if !ok {
					// Another worker may still be expanding an item that
					// will push phase-k+1 seeds; only stop when the stack
					// is empty AND nothing is in flight.
					if inFlight.Add(-1) == 0 {
						return
					}
					runtime.Gosched()
					continue
				}
				if item.phase < 0 || item.phase >= phases {
					t.Errorf("worker %d consumed out-of-range phase %d", w, item.phase)
				}
				seen[w][item.id]++
				consumed.Add(1)
				if item.phase+1 < phases {
					for c := 0; c < fanout; c++ {
						q.Push(seed{phase: item.phase + 1, id: nextID.Add(1)})
					}
				}
				inFlight.Add(-1)
			}
		}(w)
	}
	wg.Wait()

	if consumed.Load() != wantItems {
		t.Fatalf("consumed %d items, want %d", consumed.Load(), wantItems)
	}
	all := make(map[uint64]int)
	for w := range seen {
		for id, n := range seen[w] {
			all[id] += n
		}
	}
	if len(all) != wantItems {
		t.Fatalf("consumed %d distinct seeds, want %d", len(all), wantItems)
	}
	for id, n := range all {
		if n != 1 {
			t.Fatalf("seed %d consumed %d times", id, n)
		}
	}
}
