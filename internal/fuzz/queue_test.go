package fuzz

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestOwnShardIsLIFO(t *testing.T) {
	q := newStealQueue[int](2)
	q.Push(0, 1)
	q.Push(0, 2)
	q.Push(0, 3)
	for _, want := range []int{3, 2, 1} {
		got, ok := q.Pop(0)
		if !ok || got != want {
			t.Fatalf("Pop(0) = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := q.Pop(0); ok {
		t.Fatal("empty queue returned an item")
	}
}

func TestStealingIsFIFO(t *testing.T) {
	q := newStealQueue[int](3)
	q.Push(1, 10)
	q.Push(1, 11)
	// Worker 0's shard is empty: it must steal worker 1's OLDEST item.
	if got, ok := q.Pop(0); !ok || got != 10 {
		t.Fatalf("steal = %d,%v want 10", got, ok)
	}
	// Worker 1 keeps its fresh tail.
	if got, ok := q.Pop(1); !ok || got != 11 {
		t.Fatalf("own pop = %d,%v want 11", got, ok)
	}
}

func TestLenAcrossShards(t *testing.T) {
	q := newStealQueue[string](4)
	q.Push(0, "a")
	q.Push(2, "b")
	q.Push(7, "c") // wraps to shard 3
	if q.Len() != 3 {
		t.Fatalf("Len = %d want 3", q.Len())
	}
}

func TestSingleShardFallback(t *testing.T) {
	q := newStealQueue[int](0) // clamps to 1 shard
	if len(q.shards) != 1 {
		t.Fatalf("shards = %d want 1", len(q.shards))
	}
	q.Push(5, 42) // any worker index maps onto the single shard
	if got, ok := q.Pop(3); !ok || got != 42 {
		t.Fatalf("pop = %d,%v want 42", got, ok)
	}
}

// TestPhaseTaggedConsumer models a consumer whose items fan out level by
// level: items carry a phase tag, workers push follow-up items for the
// NEXT phase onto their own shard while peers steal, and the whole flood
// must drain with every item consumed exactly once and every consumed
// item's phase within range (run with -race).
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
	q := newStealQueue[seed](workers)
	var nextID atomic.Uint64
	for i := 0; i < roots; i++ {
		q.Push(i, seed{phase: 0, id: nextID.Add(1)})
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
				item, ok := q.Pop(w)
				if !ok {
					// Another worker may still be expanding an item that
					// will push phase-k+1 seeds; only stop when the queue
					// is empty AND nothing is in flight.
					if inFlight.Load() == 0 && q.Len() == 0 {
						return
					}
					continue
				}
				inFlight.Add(1)
				if item.phase < 0 || item.phase >= phases {
					t.Errorf("worker %d consumed out-of-range phase %d", w, item.phase)
				}
				seen[w][item.id]++
				consumed.Add(1)
				if item.phase+1 < phases {
					for c := 0; c < fanout; c++ {
						q.Push(w, seed{phase: item.phase + 1, id: nextID.Add(1)})
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
	for id, n := range all {
		if n != 1 {
			t.Fatalf("seed %d consumed %d times", id, n)
		}
	}
}

// TestConcurrentPushPopNoLoss hammers the queue from multiple goroutines
// and verifies every pushed item is popped exactly once (run with -race).
func TestConcurrentPushPopNoLoss(t *testing.T) {
	const workers = 4
	const perWorker = 1000
	q := newStealQueue[int](workers)

	var wg sync.WaitGroup
	got := make([]map[int]int, workers)
	for w := 0; w < workers; w++ {
		got[w] = make(map[int]int)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q.Push(w, w*perWorker+i)
				if item, ok := q.Pop(w); ok {
					got[w][item]++
				}
			}
			// Drain whatever is left from any shard.
			for {
				item, ok := q.Pop(w)
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
