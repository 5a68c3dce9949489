package vm

import (
	"sync"
	"sync/atomic"

	"repro/internal/expr"
)

// PageSize is the granularity of copy-on-write memory sharing.
const PageSize = 4096

// page holds one page of guest memory: a concrete byte array plus a sparse
// overlay of symbolic bytes. A nil sym map means the page is fully concrete.
type page struct {
	data [PageSize]byte
	sym  map[uint16]*expr.Expr
}

func (p *page) clone() *page {
	np := &page{data: p.data}
	if len(p.sym) > 0 {
		np.sym = make(map[uint16]*expr.Expr, len(p.sym))
		for k, v := range p.sym {
			np.sym[k] = v
		}
	}
	return np
}

// readByte returns the symbolic expression for one byte.
func (p *page) readByte(off uint16) *expr.Expr {
	if p.sym != nil {
		if e, ok := p.sym[off]; ok {
			return e
		}
	}
	return expr.Const(uint32(p.data[off]))
}

// writeByte stores a byte-valued expression.
func (p *page) writeByte(off uint16, e *expr.Expr) {
	if e.IsConst() {
		p.data[off] = byte(e.ConstVal())
		if p.sym != nil {
			delete(p.sym, off)
		}
		return
	}
	if p.sym == nil {
		p.sym = make(map[uint16]*expr.Expr)
	}
	p.sym[off] = e
}

// Memory is a chained copy-on-write address space, the paper's §4.1.3
// optimization: forking a state pushes an empty overlay whose reads fall
// through to the parent; writes always land in the leaf. Reads resolved
// from ancestors are cached in the leaf's read cache to avoid walking long
// chains (the paper's "cache each resolved read in the leaf state").
type Memory struct {
	parent *Memory
	pages  map[uint32]*page // pageIndex -> locally owned page
	cache  map[uint32]*page // pageIndex -> resolved ancestor page (read-only)
	depth  int
	kids   atomic.Int32 // overlays forked off this one; gates Retire
}

// pageMapPool recycles the small page/cache maps every overlay allocates.
// The fuzz executor forks and discards thousands of short-lived overlays
// per second; pooling the maps keeps that churn off the allocator. Maps are
// cleared on put so a pooled map is indistinguishable from a fresh one.
var pageMapPool = sync.Pool{
	New: func() any { return make(map[uint32]*page) },
}

func newPageMap() map[uint32]*page {
	return pageMapPool.Get().(map[uint32]*page)
}

func putPageMap(m map[uint32]*page) {
	clear(m)
	pageMapPool.Put(m)
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: newPageMap()}
}

// Fork pushes a new copy-on-write overlay and returns it. The receiver must
// be treated as immutable afterwards (the exerciser enforces this: parents
// are never re-executed directly, only their forked children).
func (m *Memory) Fork() *Memory {
	m.kids.Add(1)
	return &Memory{parent: m, pages: newPageMap(), depth: m.depth + 1}
}

// Retire recycles the overlay's maps into the shared pool. Only a leaf may
// retire: an overlay that ever forked a child (kids > 0) stays intact, since
// descendants resolve reads through it (and may hold its pages in their
// caches — the pages themselves are never pooled, only the maps). After
// Retire the memory must not be used again; writes will panic on the nil
// page map, which makes a use-after-retire loud instead of corrupting a
// pooled map.
func (m *Memory) Retire() {
	if m == nil || m.kids.Load() != 0 {
		return
	}
	if m.pages != nil {
		putPageMap(m.pages)
		m.pages = nil
	}
	if m.cache != nil {
		putPageMap(m.cache)
		m.cache = nil
	}
}

// Depth returns the length of the overlay chain, for memory accounting
// benchmarks.
func (m *Memory) Depth() int { return m.depth }

// LocalPages returns the number of pages owned by this overlay alone.
func (m *Memory) LocalPages() int { return len(m.pages) }

// lookup finds the page from the nearest overlay, without copying.
func (m *Memory) lookup(idx uint32) *page {
	if p, ok := m.pages[idx]; ok {
		return p
	}
	if m.cache != nil {
		if p, ok := m.cache[idx]; ok {
			return p
		}
	}
	for anc := m.parent; anc != nil; anc = anc.parent {
		if p, ok := anc.pages[idx]; ok {
			if m.cache == nil {
				m.cache = newPageMap()
			}
			m.cache[idx] = p
			return p
		}
	}
	return nil
}

// pageForWrite returns a locally owned page, copying the nearest ancestor
// version on first write (or materializing a zero page for untouched
// memory — guest physical memory is zero-filled).
func (m *Memory) pageForWrite(idx uint32) *page {
	if p, ok := m.pages[idx]; ok {
		return p
	}
	var np *page
	if anc := m.lookup(idx); anc != nil {
		np = anc.clone()
	} else {
		np = &page{}
	}
	m.pages[idx] = np
	if m.cache != nil {
		delete(m.cache, idx)
	}
	return np
}

// LoadByte returns the expression stored at addr.
func (m *Memory) LoadByte(addr uint32) *expr.Expr {
	p := m.lookup(addr >> 12)
	if p == nil {
		return expr.Const(0)
	}
	return p.readByte(uint16(addr & 0xFFF))
}

// StoreByte stores a byte-valued expression at addr.
func (m *Memory) StoreByte(addr uint32, e *expr.Expr) {
	p := m.pageForWrite(addr >> 12)
	p.writeByte(uint16(addr&0xFFF), e)
}

// Read returns the little-endian value of size bytes at addr as a single
// expression. size must be 1, 2 or 4.
func (m *Memory) Read(addr uint32, size uint32) *expr.Expr {
	switch size {
	case 1:
		return m.LoadByte(addr)
	case 2:
		if off := addr & 0xFFF; off <= PageSize-2 {
			if p := m.lookup(addr >> 12); p == nil {
				return expr.Const(0)
			} else if len(p.sym) == 0 {
				// Fully concrete page: assemble the word directly. This is
				// exactly what the Or/Shl constant folds below produce, one
				// interned Const instead of a chain of intermediate nodes.
				return expr.Const(uint32(p.data[off]) | uint32(p.data[off+1])<<8)
			}
		}
		return expr.ConcatBytes2(m.LoadByte(addr), m.LoadByte(addr+1))
	case 4:
		if off := addr & 0xFFF; off <= PageSize-4 {
			if p := m.lookup(addr >> 12); p == nil {
				return expr.Const(0)
			} else if len(p.sym) == 0 {
				return expr.Const(uint32(p.data[off]) | uint32(p.data[off+1])<<8 |
					uint32(p.data[off+2])<<16 | uint32(p.data[off+3])<<24)
			}
		}
		return expr.ConcatBytes(
			m.LoadByte(addr), m.LoadByte(addr+1), m.LoadByte(addr+2), m.LoadByte(addr+3))
	}
	panic("vm: bad read size")
}

// Write stores the low size bytes of e at addr, little-endian.
func (m *Memory) Write(addr uint32, size uint32, e *expr.Expr) {
	switch size {
	case 1:
		m.StoreByte(addr, expr.ZeroExt8(e))
	case 2:
		m.StoreByte(addr, expr.ZeroExt8(e))
		m.StoreByte(addr+1, expr.ExtractByte(e, 1))
	case 4:
		m.StoreByte(addr, expr.ZeroExt8(e))
		m.StoreByte(addr+1, expr.ExtractByte(e, 1))
		m.StoreByte(addr+2, expr.ExtractByte(e, 2))
		m.StoreByte(addr+3, expr.ExtractByte(e, 3))
	default:
		panic("vm: bad write size")
	}
}

// WriteBytes copies concrete bytes into memory (used by the loader and the
// kernel when marshalling structures into guest space).
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	for len(b) > 0 {
		idx := addr >> 12
		off := addr & 0xFFF
		n := PageSize - off
		if n > uint32(len(b)) {
			n = uint32(len(b))
		}
		p := m.pageForWrite(idx)
		copy(p.data[off:off+n], b[:n])
		if p.sym != nil {
			for i := uint32(0); i < n; i++ {
				delete(p.sym, uint16(off+i))
			}
		}
		addr += n
		b = b[n:]
	}
}

// ReadBytesConcrete copies size bytes into a fresh slice, requiring every
// byte to be concrete; it reports ok=false if any byte is symbolic.
func (m *Memory) ReadBytesConcrete(addr uint32, size uint32) ([]byte, bool) {
	out := make([]byte, size)
	for i := uint32(0); i < size; i++ {
		e := m.LoadByte(addr + i)
		if !e.IsConst() {
			return nil, false
		}
		out[i] = byte(e.ConstVal())
	}
	return out, true
}

// ReadCString reads a NUL-terminated concrete string of at most max bytes.
func (m *Memory) ReadCString(addr uint32, max int) (string, bool) {
	var b []byte
	for i := 0; i < max; i++ {
		e := m.LoadByte(addr + uint32(i))
		if !e.IsConst() {
			return "", false
		}
		c := byte(e.ConstVal())
		if c == 0 {
			return string(b), true
		}
		b = append(b, c)
	}
	return "", false
}

// SymbolicByteCount returns how many bytes in the local overlay are
// symbolic; used by memory-accounting benchmarks.
func (m *Memory) SymbolicByteCount() int {
	n := 0
	for _, p := range m.pages {
		n += len(p.sym)
	}
	return n
}
