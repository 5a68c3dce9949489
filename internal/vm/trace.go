package vm

import (
	"sync"

	"repro/internal/expr"
)

// EventKind tags a trace event.
type EventKind uint8

// Trace event kinds. A DDT trace (§3.5) contains the executed path —
// block entries, memory accesses, branch decisions with fork flags —
// plus the provenance of every symbolic value and the injection points of
// symbolic interrupts, which together make the trace executable: replaying
// it substitutes solved concrete inputs at the recorded injection points.
const (
	EvBlock        EventKind = iota // entered basic block at PC
	EvMem                           // memory access
	EvBranch                        // conditional branch resolved
	EvNewSym                        // symbolic value created
	EvAPICall                       // driver called kernel API
	EvAPIReturn                     // kernel API returned to driver
	EvEntry                         // entry-point invocation began
	EvEntryDone                     // entry-point invocation returned
	EvInterrupt                     // symbolic interrupt injected (ISR begins)
	EvInterruptEnd                  // ISR returned
	EvConcretize                    // symbolic value concretized at the boundary
	EvBug                           // checker flagged a bug here
	EvAltFork                       // annotation fork decision (e.g. allocation failure); Forked marks the alternative's side
	EvDevice                        // device register write (discarded by symbolic hardware, recorded as evidence)
	EvRoute                         // scenario-edge choice: edge Addr of Size taken toward node Name
)

func (k EventKind) String() string {
	switch k {
	case EvBlock:
		return "block"
	case EvMem:
		return "mem"
	case EvBranch:
		return "branch"
	case EvNewSym:
		return "newsym"
	case EvAPICall:
		return "apicall"
	case EvAPIReturn:
		return "apireturn"
	case EvEntry:
		return "entry"
	case EvEntryDone:
		return "entrydone"
	case EvInterrupt:
		return "interrupt"
	case EvInterruptEnd:
		return "interruptend"
	case EvConcretize:
		return "concretize"
	case EvBug:
		return "bug"
	case EvAltFork:
		return "altfork"
	case EvDevice:
		return "device"
	case EvRoute:
		return "route"
	default:
		return "event"
	}
}

// Event is one trace record. Fields are used according to Kind.
type Event struct {
	Kind   EventKind
	Seq    uint64 // instruction count at the event
	PC     uint32
	Addr   uint32     // EvMem: accessed address; EvRoute: chosen edge index
	Size   uint8      // EvMem: access width; EvRoute: edge count
	Write  bool       // EvMem
	Val    *expr.Expr // EvMem value, EvConcretize chosen value
	Sym    expr.SymID // EvNewSym, EvConcretize
	Cond   *expr.Expr // EvBranch condition (in taken form)
	Taken  bool       // EvBranch
	Forked bool       // EvBranch: did execution fork here; EvAltFork: the alternative's side
	Name   string     // EvAPICall/EvEntry/EvBug/EvAltFork identifier, EvRoute target node
}

// TraceNode is one segment of a path trace. Nodes form a tree mirroring the
// execution-state tree: forking a state starts a new node whose parent is
// the fork point, so common prefixes are stored once (the same chained
// structure the paper uses to reconstruct the execution tree, §3.5).
type TraceNode struct {
	parent *TraceNode
	events []Event
	// frozen marks interior nodes: once a node has become the fork-parent
	// of other nodes its events are shared history and its storage must
	// never be recycled. Leaves owned by exactly one state stay unfrozen.
	frozen bool
}

// eventSizeClasses are the pooled event-slice capacities. Growth walks up
// the ladder so a node's slice is reallocated O(log n) times instead of
// per-append, and retired slices are reused across executions.
var eventSizeClasses = [...]int{16, 64, 256, 1024, 4096}

var eventPools [len(eventSizeClasses)]sync.Pool

func init() {
	for i := range eventPools {
		n := eventSizeClasses[i]
		eventPools[i].New = func() any {
			s := make([]Event, 0, n)
			return &s
		}
	}
}

// putEvents returns a pool-sized event slice to its size-class pool.
// Elements are cleared first so retired traces do not pin expressions.
func putEvents(s []Event) {
	c := cap(s)
	for i := range eventSizeClasses {
		if c == eventSizeClasses[i] {
			clear(s)
			s = s[:0]
			eventPools[i].Put(&s)
			return
		}
	}
}

// grow moves the node's events to the next size class, recycling the old
// storage. Beyond the largest class it falls back to plain doubling.
func (t *TraceNode) grow() {
	need := 2 * cap(t.events)
	if need == 0 {
		need = eventSizeClasses[0]
	}
	if need > eventSizeClasses[len(eventSizeClasses)-1] {
		ns := make([]Event, len(t.events), need)
		copy(ns, t.events)
		putEvents(t.events)
		t.events = ns
		return
	}
	idx := 0
	for eventSizeClasses[idx] < need {
		idx++
	}
	np := eventPools[idx].Get().(*[]Event)
	ns := (*np)[:len(t.events)]
	copy(ns, t.events)
	putEvents(t.events)
	t.events = ns
}

// Append records an event in this node. Appending to a nil node is a
// no-op: a state running with tracing disabled carries a nil trace, and
// every recording site stays unchanged.
func (t *TraceNode) Append(ev Event) {
	if t == nil {
		return
	}
	if len(t.events) == cap(t.events) {
		t.grow()
	}
	t.events = append(t.events, ev)
}

// recycle returns the node's event storage to its pool. Frozen (interior)
// nodes are shared by forked siblings and are left alone.
func (t *TraceNode) recycle() {
	if t == nil || t.frozen {
		return
	}
	if cap(t.events) != 0 {
		putEvents(t.events)
	}
	t.events = nil
	t.parent = nil
}

// Parent returns the fork-parent node, or nil at the root.
func (t *TraceNode) Parent() *TraceNode {
	if t == nil {
		return nil
	}
	return t.parent
}

// Path returns the full event sequence from the root to this node,
// unwinding the chain (the paper's trace reconstruction). The result is
// sized once from Len and filled back-to-front.
func (t *TraceNode) Path() []Event {
	n := t.Len()
	if n == 0 {
		return nil
	}
	out := make([]Event, n)
	pos := n
	for node := t; node != nil; node = node.parent {
		pos -= len(node.events)
		copy(out[pos:], node.events)
	}
	return out
}

// Len returns the total number of events on the path to this node.
func (t *TraceNode) Len() int {
	n := 0
	for node := t; node != nil; node = node.parent {
		n += len(node.events)
	}
	return n
}
