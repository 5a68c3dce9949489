package vm

import (
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/isa"
)

// TestConcreteStoresCrossPageBoundary stores words and halfwords that
// straddle a page boundary through the concrete path and reads them back,
// byte by byte and as one value, through both read paths.
func TestConcreteStoresCrossPageBoundary(t *testing.T) {
	m := NewMemory()
	cases := []struct {
		addr, size, v uint32
	}{
		{0x1FFF, 4, 0xA1B2C3D4}, // 1 byte on the first page, 3 on the next
		{0x2FFE, 4, 0x11223344}, // 2 + 2
		{0x3FFD, 4, 0xCAFEBABE}, // 3 + 1
		{0x4FFF, 2, 0xBEEF},     // 1 + 1
	}
	for _, c := range cases {
		m.WriteConcrete(c.addr, c.size, c.v)
		for i := uint32(0); i < c.size; i++ {
			if got := m.LoadByte(c.addr + i); !got.IsConst() || got.ConstVal() != c.v>>(8*i)&0xFF {
				t.Fatalf("%d-byte store of %#x at %#x: byte %d reads %v", c.size, c.v, c.addr, i, got)
			}
		}
		if got, ok := m.ReadConcrete(c.addr, c.size); !ok || got != c.v {
			t.Fatalf("ReadConcrete(%#x, %d) = %#x, %v; want %#x", c.addr, c.size, got, ok, c.v)
		}
		if got := m.Read(c.addr, c.size); !got.IsConst() || got.ConstVal() != c.v {
			t.Fatalf("Read(%#x, %d) = %v; want %#x", c.addr, c.size, got, c.v)
		}
	}
	if got := m.Read(0x5FFF, 4); !got.IsConst() || got.ConstVal() != 0 {
		t.Fatalf("untouched cross-page word reads %v, want 0", got)
	}
}

// TestConcreteStoreClearsOnlyOverwrittenSymbolicBytes writes a symbolic
// word, overwrites its middle halfword concretely, and checks that exactly
// the two overwritten bytes lost their symbolic overlay.
func TestConcreteStoreClearsOnlyOverwrittenSymbolicBytes(t *testing.T) {
	m := NewMemory()
	sym := expr.Sym(1)
	const base = 0x7000
	m.Write(base, 4, sym)
	m.Write(base+4, 4, sym)
	if m.SymbolicByteCount() != 8 {
		t.Fatalf("symbolic bytes after two symbolic words: %d, want 8", m.SymbolicByteCount())
	}
	m.WriteConcrete(base+1, 2, 0xABCD)
	if m.SymbolicByteCount() != 6 {
		t.Fatalf("symbolic bytes after the concrete halfword: %d, want 6", m.SymbolicByteCount())
	}
	for off, want := range map[uint32]uint32{1: 0xCD, 2: 0xAB} {
		if got := m.LoadByte(base + off); !got.IsConst() || got.ConstVal() != want {
			t.Fatalf("byte %d reads %v, want %#x", off, got, want)
		}
	}
	for _, off := range []uint32{0, 3, 4, 5, 6, 7} {
		if m.LoadByte(base + off).IsConst() {
			t.Fatalf("byte %d lost its symbolic value", off)
		}
	}
	if _, ok := m.ReadConcrete(base, 4); ok {
		t.Fatal("ReadConcrete over symbolic bytes reported concrete")
	}
	if v, ok := m.ReadConcrete(base+1, 2); !ok || v != 0xABCD {
		t.Fatalf("ReadConcrete of the concrete halfword = %#x, %v", v, ok)
	}
}

// TestRecycledPageIsCleanZeroPage retires a leaf overlay whose pages hold
// concrete and symbolic bytes, then materializes fresh pages on a sibling
// bound to the same page list: the recycled pages must read as zero (or as
// the copied ancestor page) and carry no symbolic overlay.
func TestRecycledPageIsCleanZeroPage(t *testing.T) {
	var free pageList
	root := NewMemory()
	root.free = &free
	root.WriteBytes(0x9000, []byte{1, 2, 3, 4})

	leaf := root.Fork()
	leaf.WriteConcrete(0xA000, 4, 0xFFFFFFFF)
	leaf.Write(0xA004, 4, expr.Sym(2))
	leaf.WriteConcrete(0x9000, 4, 0xDDCCBBAA)
	leaf.Write(0x9004, 4, expr.Sym(3))
	pages := leaf.LocalPages()
	leaf.Retire()
	if len(free.pages) != pages {
		t.Fatalf("retired leaf freed %d pages, want %d", len(free.pages), pages)
	}
	for _, p := range free.pages {
		if p.sym != nil {
			t.Fatal("a freed page kept its symbolic overlay")
		}
	}

	next := root.Fork()
	next.WriteConcrete(0xB000, 1, 0x5A) // zero page from the list
	next.WriteConcrete(0x9008, 1, 0x77) // copy of root's page from the list
	if len(free.pages) != 0 {
		t.Fatalf("%d pages left on the list, want both reused", len(free.pages))
	}
	for off := uint32(0); off < PageSize; off++ {
		want := uint32(0)
		if off == 0 {
			want = 0x5A
		}
		if got, ok := next.ReadConcrete(0xB000+off, 1); !ok || got != want {
			t.Fatalf("recycled zero page byte %#x = %#x, %v; want %#x", off, got, ok, want)
		}
	}
	for off, want := range []uint32{1, 2, 3, 4, 0, 0, 0, 0, 0x77} {
		if got, ok := next.ReadConcrete(0x9000+uint32(off), 1); !ok || got != want {
			t.Fatalf("recycled copy byte %d = %#x, %v; want %#x", off, got, ok, want)
		}
	}
	if next.SymbolicByteCount() != 0 {
		t.Fatalf("recycled pages carry %d symbolic bytes", next.SymbolicByteCount())
	}
}

// TestPageListIsBounded checks a context keeps at most pageListCap pages.
func TestPageListIsBounded(t *testing.T) {
	var free pageList
	m := NewMemory()
	m.free = &free
	leaf := m.Fork()
	for i := uint32(0); i < 2*pageListCap; i++ {
		leaf.WriteConcrete(0x10000+i*PageSize, 1, 1)
	}
	leaf.Retire()
	if len(free.pages) != pageListCap {
		t.Fatalf("page list holds %d pages, cap %d", len(free.pages), pageListCap)
	}
}

// TestSnapshotSurvivesRecycledResumes resumes one frozen snapshot many
// times from several machines at once — the shape of a shared snapshot
// fabric — each resume overwriting some of the snapshot's pages, only
// reading another, and writing fresh ones before it retires and recycles
// its pages. The snapshot and every later resume must still read the
// snapshot's bytes. Runs under -race in CI.
func TestSnapshotSurvivesRecycledResumes(t *testing.T) {
	const src = ".entry e\n.text\ne:\n    ret\n.data\nbuf: .word 0\n"
	rec, s := newTestMachine(t, src)
	const stackWord = isa.StackBase - 64
	const heapWord = isa.HeapBase + 0x100
	const readWord = isa.HeapBase + 0x3100 // resumes only read its page
	s.Mem.WriteConcrete(stackWord, 4, 0x5EED5EED)
	s.Mem.WriteConcrete(readWord, 4, 0xFEEDFACE)
	s.Mem.WriteConcrete(heapWord, 4, 0x0BADF00D)
	s.Mem.Write(heapWord+4, 4, expr.Sym(9))
	snap := rec.SnapshotState(s)

	check := func(tag string, st *State) {
		t.Helper()
		if v, ok := st.Mem.ReadConcrete(stackWord, 4); !ok || v != 0x5EED5EED {
			t.Fatalf("%s: stack word %#x, %v", tag, v, ok)
		}
		if v, ok := st.Mem.ReadConcrete(heapWord, 4); !ok || v != 0x0BADF00D {
			t.Fatalf("%s: heap word %#x, %v", tag, v, ok)
		}
		if v, ok := st.Mem.ReadConcrete(readWord, 4); !ok || v != 0xFEEDFACE {
			t.Fatalf("%s: read-only word %#x, %v", tag, v, ok)
		}
		if e := st.Mem.Read(heapWord+4, 4); e != expr.Sym(9) {
			t.Fatalf("%s: symbolic word reads %v", tag, e)
		}
		if v, ok := st.Mem.ReadConcrete(isa.HeapBase+0x2000, 4); !ok || v != 0 {
			t.Fatalf("%s: untouched word %#x, %v", tag, v, ok)
		}
	}

	const machines, resumes = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < machines; w++ {
		m, _ := newTestMachine(t, src)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < resumes; i++ {
				r := m.ResumeState(snap)
				v := uint32(w<<16 | i)
				r.Mem.WriteConcrete(stackWord, 4, v)
				r.Mem.WriteConcrete(heapWord+2, 4, v)
				r.Mem.WriteConcrete(isa.HeapBase+0x2000, 4, v)
				r.Mem.WriteConcrete(isa.HeapBase+uint32(i%8)*PageSize, 2, v)
				if got, ok := r.Mem.ReadConcrete(stackWord, 4); !ok || got != v {
					t.Errorf("machine %d resume %d: own write reads %#x, %v", w, i, got, ok)
					return
				}
				if got, ok := r.Mem.ReadConcrete(readWord, 4); !ok || got != 0xFEEDFACE {
					t.Errorf("machine %d resume %d: snapshot word reads %#x, %v", w, i, got, ok)
					return
				}
				r.Retire()
			}
			if len(m.pages.pages) == 0 {
				t.Errorf("machine %d recycled no pages", w)
			}
		}(w)
	}
	wg.Wait()
	check("snapshot", snap)
	check("resume", rec.ResumeState(snap))
}
