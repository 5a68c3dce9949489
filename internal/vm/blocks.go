package vm

import (
	"math"
	"sync"
)

// blockEntry is one block's visit count on a path; n == 0 marks an empty
// slot (a counted block has been visited at least once).
type blockEntry struct{ pc, n uint32 }

// blockTable is a path's block-visit counts (State.VisitBlock): an
// open-addressed table with linear probing over a power-of-two slice,
// kept at most half full. The slice comes from a size-class pool and goes
// back on State.Retire, so a warm fuzz execution resumed from a snapshot
// counts its blocks without allocating.
//
// A dense per-instruction array would avoid hashing, but blocks also start
// at non-leaders (interrupt returns, call resumptions), so it would need a
// slot per instruction: 16k slots (64 KiB) per symbolic fork on the larger
// corpus drivers, against a few hundred blocks a path actually visits.
type blockTable struct {
	slots []blockEntry
	box   *[]blockEntry // pool handle behind slots; nil when slots is unpooled
	shift uint32        // 32 - log2(len(slots)): the hash keeps the top bits
	n     int           // distinct blocks counted
}

const (
	minBlockBits       = 4  // smallest table: 16 slots
	maxPooledBlockBits = 20 // tables above 1<<20 slots are left to the collector
	blockHashMul       = 0x9E3779B1
)

// blockPools[b] recycles tables of 1<<b slots. sync.Pool makes recycling
// safe from any goroutine: snapshot resumes run concurrently across the
// executors sharing one snapshot fabric.
var blockPools [maxPooledBlockBits + 1]sync.Pool

// blockBitsFor returns the table size, in bits, that holds n blocks at most
// half full.
func blockBitsFor(n int) uint32 {
	b := uint32(minBlockBits)
	for 1<<b < 2*n {
		b++
	}
	return b
}

// alloc points t at a zeroed table of 1<<bits slots, pooled when it can be.
func (t *blockTable) alloc(bits uint32) {
	t.shift = 32 - bits
	t.box = nil
	if bits > maxPooledBlockBits {
		t.slots = make([]blockEntry, 1<<bits)
		return
	}
	if b, ok := blockPools[bits].Get().(*[]blockEntry); ok {
		t.box, t.slots = b, *b
		clear(t.slots)
		return
	}
	s := make([]blockEntry, 1<<bits)
	t.box, t.slots = &s, s
}

// release returns t's slots to their pool and empties t.
func (t *blockTable) release() {
	if t.box != nil {
		blockPools[32-t.shift].Put(t.box)
	}
	*t = blockTable{}
}

// visit counts one more visit of pc and returns the new count. A count
// saturates at MaxUint32 rather than wrap to zero, which would read as an
// empty slot.
func (t *blockTable) visit(pc uint32) uint64 {
	if t.slots == nil {
		t.alloc(minBlockBits)
	}
	mask := uint32(len(t.slots) - 1)
	for i := (pc * blockHashMul) >> t.shift; ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.n == 0 {
			e.pc, e.n = pc, 1
			t.n++
			if 2*t.n > len(t.slots) {
				t.rehash(t.slots, blockBitsFor(t.n))
			}
			return 1
		}
		if e.pc == pc {
			if e.n != math.MaxUint32 {
				e.n++
			}
			return uint64(e.n)
		}
	}
}

// count returns pc's visit count, 0 when it was never visited.
func (t *blockTable) count(pc uint32) uint64 {
	if t.slots == nil {
		return 0
	}
	mask := uint32(len(t.slots) - 1)
	for i := (pc * blockHashMul) >> t.shift; ; i = (i + 1) & mask {
		e := t.slots[i]
		if e.n == 0 {
			return 0
		}
		if e.pc == pc {
			return uint64(e.n)
		}
	}
}

// rehash moves the counted entries of src (a probe table or a compact
// list) into fresh storage of 1<<bits slots, recycling t's old storage
// afterwards. src may be t's own slots.
func (t *blockTable) rehash(src []blockEntry, bits uint32) {
	old := *t
	t.alloc(bits)
	t.fill(src)
	old.release()
}

// load makes t hold exactly the counts of src, a snapshot's frozen list,
// in a table sized for twice as many blocks (the size a snapshot resume
// starts with). Whatever t held is dropped; its slots are cleared and
// reused when they are of that size, and recycled otherwise.
func (t *blockTable) load(src []blockEntry) {
	bits := blockBitsFor(2 * len(src))
	if t.slots != nil && 32-t.shift == bits {
		clear(t.slots)
	} else {
		t.release()
		t.alloc(bits)
	}
	t.fill(src)
}

// fill inserts the counted entries of src (empty slots are skipped) into
// t's zeroed slots, which must hold them at most half full.
func (t *blockTable) fill(src []blockEntry) {
	t.n = 0
	mask := uint32(len(t.slots) - 1)
	for _, e := range src {
		if e.n == 0 {
			continue
		}
		i := (e.pc * blockHashMul) >> t.shift
		for t.slots[i].n != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
		t.n++
	}
}

// compact returns the counted entries as an exact-size list that no table
// shares: the frozen form a snapshot keeps (Machine.SnapshotState).
func (t *blockTable) compact() []blockEntry {
	out := make([]blockEntry, 0, t.n)
	for _, e := range t.slots {
		if e.n != 0 {
			out = append(out, e)
		}
	}
	return out
}
