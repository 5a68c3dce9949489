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

// pageListCap bounds one machine's list of recycled pages (128 KiB), so
// what a machine keeps around does not depend on how many executions it
// retired.
const pageListCap = 32

// pageList holds pages released by retired leaf overlays for reuse by the
// next copy-on-write on the same machine. It is not locked: one list
// belongs to one vm.Machine, which steps one state at a time.
type pageList struct {
	pages []*page
}

// take returns a recycled page with a nil sym overlay and stale data, or
// nil when the list is empty (or there is no list).
func (l *pageList) take() *page {
	if l == nil || len(l.pages) == 0 {
		return nil
	}
	p := l.pages[len(l.pages)-1]
	l.pages = l.pages[:len(l.pages)-1]
	return p
}

// put offers p for reuse; a full list drops it for the collector.
func (l *pageList) put(p *page) {
	if len(l.pages) < pageListCap {
		p.sym = nil
		l.pages = append(l.pages, p)
	}
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

// concrete reports whether the n bytes from off hold no symbolic byte.
func (p *page) concrete(off, n uint32) bool {
	if len(p.sym) == 0 {
		return true
	}
	for i := uint32(0); i < n; i++ {
		if _, ok := p.sym[uint16(off+i)]; ok {
			return false
		}
	}
	return true
}

// writeConcrete stores the low n bytes of v at off, little-endian, and
// clears the symbolic overlay of exactly those bytes.
func (p *page) writeConcrete(off, n, v uint32) {
	for i := uint32(0); i < n; i++ {
		p.data[off+i] = byte(v >> (8 * i))
	}
	if p.sym != nil {
		for i := uint32(0); i < n; i++ {
			delete(p.sym, uint16(off+i))
		}
	}
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

	// free is the page list of the machine stepping this overlay (set by
	// each step, Retire and ResumeInto); forks inherit it. Nil means pages
	// are allocated fresh and left to the collector.
	free *pageList
}

// pageMapPool recycles the small page/cache maps every overlay allocates.
// The fuzz executor forks and discards thousands of short-lived overlays
// per second; pooling the maps keeps that churn off the allocator.
var pageMapPool = sync.Pool{
	New: func() any { return make(map[uint32]*page) },
}

func newPageMap() map[uint32]*page {
	return pageMapPool.Get().(map[uint32]*page)
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: newPageMap()}
}

// Fork pushes a new copy-on-write overlay and returns it. The receiver must
// be treated as immutable afterwards (the exerciser enforces this: parents
// are never re-executed directly, only their forked children).
func (m *Memory) Fork() *Memory { return m.forkInto(nil) }

// forkInto is Fork writing the new overlay into dst, a leaf overlay that
// nothing reads any more (see reusable): dst's own pages go to its page
// list, its page and read-cache maps are emptied in place, and it is
// re-parented onto m. A nil dst gets a new overlay. m's fork count is the
// only shared state the call writes.
func (m *Memory) forkInto(dst *Memory) *Memory {
	m.kids.Add(1)
	if dst == nil {
		return &Memory{parent: m, pages: newPageMap(), depth: m.depth + 1, free: m.free}
	}
	dst.recycle()
	dst.parent, dst.depth = m, m.depth+1
	return dst
}

// reusable reports whether m can be forked into (forkInto): a leaf that
// never forked a child and was not retired.
func (m *Memory) reusable() bool {
	return m != nil && m.pages != nil && m.kids.Load() == 0
}

// recycle gives the overlay's own pages to the page list it is bound to
// and empties its page and read-cache maps.
func (m *Memory) recycle() {
	if m.free != nil {
		for _, p := range m.pages {
			m.free.put(p)
		}
	}
	clear(m.pages)
	clear(m.cache)
}

// Retire recycles the overlay's maps into the shared pool and its locally
// owned pages into the page list it is bound to. Only a leaf may retire: an
// overlay that ever forked a child (kids > 0) stays intact, since
// descendants resolve reads through it and may hold its pages in their
// caches. A leaf's own pages are referenced by nothing else, so they are
// safe to reuse; pages it merely cached from ancestors are not touched.
// After Retire the memory must not be used again; writes will panic on the
// nil page map, which makes a use-after-retire loud instead of corrupting a
// pooled map. Maps are cleared before they are pooled, so a pooled map is
// indistinguishable from a fresh one.
func (m *Memory) Retire() {
	if !m.reusable() {
		return
	}
	m.recycle()
	pageMapPool.Put(m.pages)
	m.pages = nil
	if m.cache != nil {
		pageMapPool.Put(m.cache)
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
// memory — guest physical memory is zero-filled). The page comes from the
// bound machine's list when one is free; its stale data is overwritten or
// zeroed here, and take already cleared its overlay.
func (m *Memory) pageForWrite(idx uint32) *page {
	if p, ok := m.pages[idx]; ok {
		return p
	}
	anc := m.lookup(idx)
	np := m.free.take()
	switch {
	case np == nil:
		np = new(page)
	case anc == nil:
		np.data = [PageSize]byte{} // a recycled page's stale bytes
	}
	if anc != nil {
		np.data = anc.data
		if len(anc.sym) > 0 {
			np.sym = make(map[uint16]*expr.Expr, len(anc.sym))
			for k, v := range anc.sym {
				np.sym[k] = v
			}
		}
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

// ReadConcrete returns the little-endian value of size bytes at addr when
// none of them is symbolic. size must be 1, 2 or 4.
func (m *Memory) ReadConcrete(addr, size uint32) (uint32, bool) {
	if off := addr & 0xFFF; off <= PageSize-size {
		p := m.lookup(addr >> 12)
		if p == nil {
			return 0, true
		}
		if !p.concrete(off, size) {
			return 0, false
		}
		v := uint32(p.data[off])
		for i := uint32(1); i < size; i++ {
			v |= uint32(p.data[off+i]) << (8 * i)
		}
		return v, true
	}
	var v uint32
	for i := uint32(0); i < size; i++ {
		b, ok := m.ReadConcrete(addr+i, 1)
		if !ok {
			return 0, false
		}
		v |= b << (8 * i)
	}
	return v, true
}

// Read returns the little-endian value of size bytes at addr as a single
// expression. size must be 1, 2 or 4.
func (m *Memory) Read(addr uint32, size uint32) *expr.Expr {
	if size != 1 && size != 2 && size != 4 {
		panic("vm: bad read size")
	}
	if v, ok := m.ReadConcrete(addr, size); ok {
		return expr.Const(v)
	}
	return m.readSym(addr, size)
}

// readSym assembles the size bytes at addr from their byte expressions;
// Read and the VM's loads take it once a byte is symbolic. (On concrete
// bytes the Or/Shl constant folds would produce exactly ReadConcrete's
// word.)
func (m *Memory) readSym(addr uint32, size uint32) *expr.Expr {
	switch size {
	case 1:
		return m.LoadByte(addr)
	case 2:
		return expr.ConcatBytes2(m.LoadByte(addr), m.LoadByte(addr+1))
	default:
		return expr.ConcatBytes(
			m.LoadByte(addr), m.LoadByte(addr+1), m.LoadByte(addr+2), m.LoadByte(addr+3))
	}
}

// WriteConcrete stores the low size bytes of the word v at addr,
// little-endian, clearing the symbolic overlay of exactly the bytes it
// overwrites. size must be 1, 2 or 4.
func (m *Memory) WriteConcrete(addr, size, v uint32) {
	if off := addr & 0xFFF; off <= PageSize-size {
		m.pageForWrite(addr>>12).writeConcrete(off, size, v)
		return
	}
	for i := uint32(0); i < size; i++ {
		m.WriteConcrete(addr+i, 1, v>>(8*i))
	}
}

// Write stores the low size bytes of e at addr, little-endian.
func (m *Memory) Write(addr uint32, size uint32, e *expr.Expr) {
	if size != 1 && size != 2 && size != 4 {
		panic("vm: bad write size")
	}
	if e.IsConst() {
		m.WriteConcrete(addr, size, e.ConstVal())
		return
	}
	m.StoreByte(addr, expr.ZeroExt8(e))
	for i := uint32(1); i < size; i++ {
		m.StoreByte(addr+i, expr.ExtractByte(e, uint(i)))
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
	for i := range out {
		b, ok := m.ReadConcrete(addr+uint32(i), 1)
		if !ok {
			return nil, false
		}
		out[i] = byte(b)
	}
	return out, true
}

// ReadCString reads a NUL-terminated concrete string of at most max bytes.
func (m *Memory) ReadCString(addr uint32, max int) (string, bool) {
	var buf [64]byte // typical names fit without growing on the heap
	b := buf[:0]
	for i := 0; i < max; i++ {
		c, ok := m.ReadConcrete(addr+uint32(i), 1)
		if !ok {
			return "", false
		}
		if c == 0 {
			return string(b), true
		}
		b = append(b, byte(c))
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
