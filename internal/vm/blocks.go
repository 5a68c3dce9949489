package vm

import (
	"math"
	"sync"
)

// blockEntry is one block's visit count on a path; n == 0 marks an empty
// slot (a counted block has been visited at least once).
type blockEntry struct{ pc, n uint32 }

// blockTable is a path's block-visit counts (State.VisitBlock): a private
// open-addressed table with linear probing over a power-of-two slice, kept
// at most half full, over an optional read-only base layer, the counts a
// snapshot froze (blockLayer). The slice comes from a size-class pool and
// goes back on State.Retire, so a warm fuzz execution resumed from a
// snapshot counts its blocks without allocating.
//
// The private table holds only the blocks this path visited since its base
// was frozen, each with its absolute count: the first private visit of a
// block takes the base's count plus one. So a resume points at the
// snapshot's layer and starts with an empty private table, whatever the
// size of the boot it continues.
//
// A dense per-instruction array would avoid hashing, but blocks also start
// at non-leaders (interrupt returns, call resumptions), so it would need a
// slot per instruction: 16k slots (64 KiB) per symbolic fork on the larger
// corpus drivers, against a few hundred blocks a path actually visits.
type blockTable struct {
	slots []blockEntry
	box   *[]blockEntry // pool handle behind slots; nil when slots is unpooled
	shift uint32        // 32 - log2(len(slots)): the hash keeps the top bits
	n     int           // entries in slots
	fresh int           // entries in slots that base does not count
	base  *blockLayer   // frozen counts below slots; nil on a fresh path
}

// blockLayer is a snapshot's block counts, frozen and never written again
// (Machine.SnapshotState): the absolute counts of the blocks visited since
// the layer below, in an open-addressed table sized for them, and the
// path's distinct-block total up to this layer. Resumes on any goroutine
// read it without a lock.
type blockLayer struct {
	slots []blockEntry
	shift uint32
	below *blockLayer
	total int // distinct blocks counted by this layer and those below
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

// lookup returns pc's count in an open-addressed table, 0 when it holds
// none.
func lookup(slots []blockEntry, shift, pc uint32) uint32 {
	if slots == nil {
		return 0
	}
	mask := uint32(len(slots) - 1)
	for i := (pc * blockHashMul) >> shift; ; i = (i + 1) & mask {
		e := slots[i]
		if e.n == 0 || e.pc == pc {
			return e.n
		}
	}
}

// count returns pc's count in the nearest layer from l down that holds
// it, 0 when none does.
func (l *blockLayer) count(pc uint32) uint32 {
	for ; l != nil; l = l.below {
		if n := lookup(l.slots, l.shift, pc); n != 0 {
			return n
		}
	}
	return 0
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

// resume makes t count on top of base with an empty private table. A
// table that counted a path from its start (no base: a cold boot) is sized
// for the whole boot and goes back to its pool; one that counted on top of
// a layer is sized for what a resumed path visits, so it is cleared and
// kept.
func (t *blockTable) resume(base *blockLayer) {
	if t.base == nil {
		t.release()
	} else if t.n != 0 {
		clear(t.slots)
	}
	t.n, t.fresh, t.base = 0, 0, base
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
			n := t.base.count(pc)
			if n == 0 {
				t.fresh++
			}
			if n != math.MaxUint32 {
				n++
			}
			e.pc, e.n = pc, n
			t.n++
			if 2*t.n > len(t.slots) {
				t.rehash(blockBitsFor(t.n))
			}
			return uint64(n)
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
	if n := lookup(t.slots, t.shift, pc); n != 0 {
		return uint64(n)
	}
	return uint64(t.base.count(pc))
}

// distinct returns the number of distinct blocks counted.
func (t *blockTable) distinct() int {
	if t.base == nil {
		return t.fresh
	}
	return t.base.total + t.fresh
}

// rehash moves t's entries into fresh storage of 1<<bits slots, recycling
// the old storage afterwards.
func (t *blockTable) rehash(bits uint32) {
	old := *t
	t.alloc(bits)
	fill(t.slots, t.shift, old.slots)
	old.release()
}

// freeze returns t's counts as a read-only layer: its private entries in
// a new table of their own over t's base, or the base itself when t has
// no private entries. t is left untouched.
func (t *blockTable) freeze() *blockLayer {
	if t.n == 0 {
		return t.base
	}
	bits := blockBitsFor(t.n)
	l := &blockLayer{
		slots: make([]blockEntry, 1<<bits),
		shift: 32 - bits,
		below: t.base,
		total: t.distinct(),
	}
	fill(l.slots, l.shift, t.slots)
	return l
}

// fill inserts the counted entries of src (empty slots are skipped) into
// the zeroed table dst, which must hold them at most half full.
func fill(dst []blockEntry, shift uint32, src []blockEntry) {
	mask := uint32(len(dst) - 1)
	for _, e := range src {
		if e.n == 0 {
			continue
		}
		i := (e.pc * blockHashMul) >> shift
		for dst[i].n != 0 {
			i = (i + 1) & mask
		}
		dst[i] = e
	}
}
