package fuzz

import "sync"

// stealQueue is the campaign's sharded work-stealing triage queue (after
// syzkaller's courier queues). Freshly admitted corpus entries are pushed
// to the admitting worker's shard for focused follow-up mutation; a worker
// whose shard runs dry steals from its peers before falling back to
// corpus-weighted selection. The symbolic frontier deliberately does not
// use it: the §4.3 min-block-count pick needs the whole frontier, which a
// per-shard steal discipline cannot express (see exerciser.Scheduler).
//
// The discipline: each worker pops its own shard LIFO (freshest work first
// — the item most related to what the worker just discovered); a worker
// whose shard is empty steals the OLDEST item from a peer's shard (FIFO
// keeps stolen work fair and leaves the victim its fresh tail). All
// operations are safe for concurrent use; each shard has its own mutex, so
// workers collide only when stealing.
type stealQueue[T any] struct {
	shards []shard[T]
}

type shard[T any] struct {
	mu    sync.Mutex
	items []T
}

// newStealQueue returns a queue with one shard per worker.
func newStealQueue[T any](workers int) *stealQueue[T] {
	if workers < 1 {
		workers = 1
	}
	return &stealQueue[T]{shards: make([]shard[T], workers)}
}

// Push enqueues an item on the given worker's shard.
func (q *stealQueue[T]) Push(worker int, item T) {
	sh := &q.shards[worker%len(q.shards)]
	sh.mu.Lock()
	sh.items = append(sh.items, item)
	sh.mu.Unlock()
}

// Pop takes from the worker's own shard first (LIFO), then steals the
// oldest item from the other shards. It reports ok=false when every shard
// is empty.
func (q *stealQueue[T]) Pop(worker int) (T, bool) {
	n := len(q.shards)
	own := worker % n
	if item, ok := q.shards[own].popTail(); ok {
		return item, true
	}
	for i := 1; i < n; i++ {
		if item, ok := q.shards[(own+i)%n].popHead(); ok {
			return item, true
		}
	}
	var zero T
	return zero, false
}

// Len returns the total queued items across shards.
func (q *stealQueue[T]) Len() int {
	total := 0
	for i := range q.shards {
		q.shards[i].mu.Lock()
		total += len(q.shards[i].items)
		q.shards[i].mu.Unlock()
	}
	return total
}

func (sh *shard[T]) popTail() (T, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var zero T
	if len(sh.items) == 0 {
		return zero, false
	}
	item := sh.items[len(sh.items)-1]
	sh.items[len(sh.items)-1] = zero // release the reference
	sh.items = sh.items[:len(sh.items)-1]
	return item, true
}

func (sh *shard[T]) popHead() (T, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var zero T
	if len(sh.items) == 0 {
		return zero, false
	}
	item := sh.items[0]
	sh.items[0] = zero
	sh.items = sh.items[1:]
	return item, true
}
