// Package workq provides a generic sharded work-stealing queue (after
// syzkaller's courier queues). It began life as the fuzzing campaign's
// triage queue, generalized here so DDT's parallel subsystems share one
// implementation. The fuzzer's triage queue is a thin wrapper over it;
// the symbolic engine's frontier deliberately is NOT — the frontier needs
// the global min-block-count heuristic (§4.3) over the whole queue, which
// a per-shard steal discipline cannot express, so it stays in
// exerciser.Scheduler.
//
// The discipline: each worker pushes follow-up work to its own shard and
// pops from it LIFO (freshest work first — locality: the item most related
// to what the worker just discovered); a worker whose shard runs dry steals
// the OLDEST item from a peer's shard (FIFO keeps stolen work fair and
// leaves the victim its fresh tail). All operations are safe for concurrent
// use; each shard has its own mutex, so workers collide only when stealing.
package workq

import "sync"

// Queue is a sharded work-stealing queue of T.
type Queue[T any] struct {
	shards []shard[T]
}

type shard[T any] struct {
	mu    sync.Mutex
	items []T
}

// New returns a queue with one shard per worker.
func New[T any](workers int) *Queue[T] {
	if workers < 1 {
		workers = 1
	}
	return &Queue[T]{shards: make([]shard[T], workers)}
}

// Shards returns the shard count.
func (q *Queue[T]) Shards() int { return len(q.shards) }

// Push enqueues an item on the given worker's shard.
func (q *Queue[T]) Push(worker int, item T) {
	sh := &q.shards[worker%len(q.shards)]
	sh.mu.Lock()
	sh.items = append(sh.items, item)
	sh.mu.Unlock()
}

// Pop takes from the worker's own shard first (LIFO: freshest first), then
// steals the oldest item from the other shards. It reports ok=false when
// every shard is empty.
func (q *Queue[T]) Pop(worker int) (T, bool) {
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
func (q *Queue[T]) Len() int {
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
	if len(sh.items) == 0 {
		var zero T
		return zero, false
	}
	item := sh.items[len(sh.items)-1]
	var zero T
	sh.items[len(sh.items)-1] = zero // release the reference
	sh.items = sh.items[:len(sh.items)-1]
	return item, true
}

func (sh *shard[T]) popHead() (T, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.items) == 0 {
		var zero T
		return zero, false
	}
	item := sh.items[0]
	var zero T
	sh.items[0] = zero
	sh.items = sh.items[1:]
	return item, true
}
