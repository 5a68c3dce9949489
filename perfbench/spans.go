package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Parent is the index
// of the enclosing span in the same lane, or -1.
type span struct {
	Name       string
	Start, End time.Duration // offsets from the recorder's origin
	Parent     int32
}

// Recorder holds every span of a traced round in memory, in lanes. A Lane
// is the span stack of one goroutine: each wrapper is bound to the lane of
// the goroutine that calls it (the single engine worker, one fleet worker,
// one server request), so a span's parent is the innermost span still open
// on its goroutine without any per-call goroutine lookup. Self time is a
// span's duration minus the durations of its children. A nil *Recorder
// hands out nil lanes, which record nothing.
type Recorder struct {
	mu     sync.Mutex
	origin time.Time
	lanes  []*Lane
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{origin: time.Now()}
}

// Lane returns a new span stack for one goroutine.
func (r *Recorder) Lane() *Lane {
	if r == nil {
		return nil
	}
	l := &Lane{origin: r.origin}
	r.mu.Lock()
	l.id = len(r.lanes)
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

// Lane is one goroutine's span stack and spans. Only that goroutine may
// call Begin and End; the recorder reads the lane once the goroutine is
// done.
type Lane struct {
	origin time.Time
	id     int
	spans  []span
	stack  []int32
}

// Begin opens a span and returns its handle.
func (l *Lane) Begin(name string) int32 {
	if l == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: time.Since(l.origin)})
	l.stack = append(l.stack, id)
	return id
}

// End closes the span opened by Begin; spans close in LIFO order, which
// every wrapper guarantees with defer.
func (l *Lane) End(id int32) {
	if l == nil {
		return
	}
	l.spans[id].End = time.Since(l.origin)
	l.stack = l.stack[:len(l.stack)-1]
}

// LayerStat aggregates the spans of one name.
type LayerStat struct {
	Calls int
	Self  time.Duration
	// Durs are the spans' full durations.
	Durs []time.Duration
}

// Layers computes per-name call counts, self times and durations. Call it
// only after every goroutine holding a lane has finished.
func (r *Recorder) Layers() map[string]*LayerStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*LayerStat)
	for _, l := range r.lanes {
		child := make([]time.Duration, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range l.spans {
			ls := out[s.Name]
			if ls == nil {
				ls = &LayerStat{}
				out[s.Name] = ls
			}
			d := s.End - s.Start
			ls.Calls++
			ls.Self += d - child[i]
			ls.Durs = append(ls.Durs, d)
		}
	}
	return out
}

// WriteTSV writes every span, one per line: name, lane, parent index
// within the lane, start and end in nanoseconds from the recorder's
// origin.
func (r *Recorder) WriteTSV(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tlane\tparent\tstart_ns\tend_ns")
	for _, l := range r.lanes {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.Name, l.id, s.Parent, s.Start.Nanoseconds(), s.End.Nanoseconds())
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfSum is the total self time of the named layers.
func SelfSum(layers map[string]*LayerStat, names ...string) time.Duration {
	var d time.Duration
	for _, n := range names {
		if ls := layers[n]; ls != nil {
			d += ls.Self
		}
	}
	return d
}

// layerCalls is the total call count of the named layers.
func layerCalls(layers map[string]*LayerStat, names ...string) int {
	n := 0
	for _, name := range names {
		if ls := layers[name]; ls != nil {
			n += ls.Calls
		}
	}
	return n
}

// percentile returns the p-quantile (0..1) of ds by the nearest-rank rule.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(p*float64(len(s))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}
