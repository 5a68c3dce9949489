package fuzz

import "sync"

// stack is the campaign's triage queue: fresh seeds and close mutants of
// newly admitted corpus entries, popped LIFO (freshest work first — the
// item most related to what a worker just discovered). Every worker pushes
// and pops the one stack under its mutex; a worker that finds it empty
// falls back to corpus-weighted selection.
type stack[T any] struct {
	mu    sync.Mutex
	items []T
}

// Push adds an item on top of the stack.
func (s *stack[T]) Push(item T) {
	s.mu.Lock()
	s.items = append(s.items, item)
	s.mu.Unlock()
}

// Pop takes the newest item. It reports ok=false when the stack is empty.
func (s *stack[T]) Pop() (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var zero T
	n := len(s.items)
	if n == 0 {
		return zero, false
	}
	item := s.items[n-1]
	s.items[n-1] = zero // release the reference
	s.items = s.items[:n-1]
	return item, true
}
