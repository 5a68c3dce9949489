package vm

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/expr"
	"repro/internal/isa"
)

// forkable is a minimal Forkable for snapshot tests.
type forkable struct{ n int }

func (f *forkable) Fork() Forkable { c := *f; return &c }

func (f *forkable) RestoreFrom(src Forkable) { *f = *src.(*forkable) }

// TestForkFrozenDoesNotMutateSnapshot is the state-restore invariant behind
// persistent-mode execution: any number of children can resume from one
// frozen snapshot, each child's writes stay private, and the snapshot —
// memory, registers, loop accounting, overlay depth — is bit-identical
// afterwards. Contrast with Fork, which reassigns the parent's memory onto
// a fresh overlay each call and so deepens its chain.
func TestForkFrozenDoesNotMutateSnapshot(t *testing.T) {
	img, err := asm.Assemble(".entry e\n.text\ne: movi r1, 0x11\n ret\n")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(img, expr.NewSymbolTable(), nil)
	run := NewState(1)
	run.Mem.WriteBytes(0x100000, []byte{1, 2, 3, 4})
	run.SetReg(isa.R3, expr.Const(77))
	run.PC = 0x100008
	run.ICount = 500
	run.Kernel = &forkable{n: 1}
	for i := 0; i < 9; i++ {
		run.VisitBlock(0x100000)
	}
	run.lastBlock = 0x100000
	run.PushInterrupt(0x100100)
	run.PopInterrupt()
	snap := m.SnapshotState(run)

	memDepth := snap.Mem.Depth()
	memObj := snap.Mem
	traceObj := snap.Trace

	var children []*State
	for i := 0; i < 8; i++ {
		c := snap.ForkFrozen(uint64(100 + i))
		children = append(children, c)

		// Children inherit the replay context...
		if c.PC != snap.PC || c.ICount != snap.ICount || c.Parent != snap.ID {
			t.Fatalf("child %d lost context: %+v", i, c)
		}
		if v, ok := c.RegConcrete(isa.R3); !ok || v != 77 {
			t.Fatalf("child %d lost registers", i)
		}
		// ...including the loop accounting, which Fork deliberately resets
		// but a snapshot resume must carry (it continues the same path).
		if c.LoopCount(0x100000) != 9 || c.BlockCount() != 1 {
			t.Fatalf("child %d lost loop counts", i)
		}
		if c.lastBlock != 0x100000 {
			t.Fatalf("child %d lost its last block: %#x", i, c.lastBlock)
		}

		// Child writes stay private.
		c.Mem.Write(0x100000, 4, expr.Const(uint32(0xAAAA0000+uint32(i))))
		for j := 0; j <= i; j++ {
			c.VisitBlock(0x100000)
		}
		c.lastBlock = 0x100200 + uint32(i)
		c.Kernel.(*forkable).n = 100 + i
	}

	// The snapshot is untouched: same memory object at the same depth (no
	// per-resume overlay growth), same contents, same bookkeeping.
	if snap.Mem != memObj || snap.Mem.Depth() != memDepth {
		t.Fatalf("snapshot memory mutated: depth %d -> %d", memDepth, snap.Mem.Depth())
	}
	if snap.Trace != traceObj {
		t.Fatal("snapshot trace reassigned")
	}
	if got := snap.Mem.Read(0x100000, 4); !got.IsConst() || got.ConstVal() != 0x04030201 {
		t.Fatalf("snapshot memory corrupted: %v", got)
	}
	if snap.LoopCount(0x100000) != 9 || snap.BlockCount() != 1 || snap.lastBlock != 0x100000 || snap.Kernel.(*forkable).n != 1 {
		t.Fatal("snapshot bookkeeping corrupted by children")
	}
	// Children do not see each other's writes.
	for i, c := range children {
		if got := c.Mem.Read(0x100000, 4); got.ConstVal() != 0xAAAA0000+uint32(i) {
			t.Fatalf("child %d lost its private write: %v", i, got)
		}
	}
}

// TestSnapshotStateFreezesRunningPath: Machine.SnapshotState captures a
// mid-run state such that (a) the running path continues unaffected, (b)
// the snapshot keeps the loop accounting, and (c) later writes by the
// running path never reach the snapshot or its resumed children.
func TestSnapshotStateFreezesRunningPath(t *testing.T) {
	img, err := asm.Assemble(".entry e\n.text\ne: movi r1, 0x11\n ret\n")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(img, expr.NewSymbolTable(), nil)
	s := m.NewRootState()
	for i := 0; i < 3; i++ {
		s.VisitBlock(0x100000)
	}
	s.Mem.Write(0x200000, 4, expr.Const(1))

	snap := m.SnapshotState(s)
	if snap.LoopCount(0x100000) != 3 {
		t.Fatal("snapshot lost loop accounting")
	}
	// The running path keeps executing and writing...
	s.Mem.Write(0x200000, 4, expr.Const(2))
	for s.LoopCount(0x100000) < 99 {
		s.VisitBlock(0x100000)
	}
	// ...without contaminating the snapshot or a resumed child.
	c := m.ResumeState(snap)
	if got := c.Mem.Read(0x200000, 4); got.ConstVal() != 1 {
		t.Fatalf("resumed child sees the running path's later write: %v", got)
	}
	if c.LoopCount(0x100000) != 3 {
		t.Fatalf("resumed child loop counts = %d, want the snapshot's 3", c.LoopCount(0x100000))
	}
	if c.ID == snap.ID || c.ID == s.ID {
		t.Fatal("resumed child did not get a fresh ID")
	}
}

// TestResumedChildCountsOnItsOwnTable: a state resumed from a snapshot
// starts from the snapshot's counts and keeps its own visits private,
// whether they hit a block the snapshot counted or a new one, and whatever
// the table's growth: the child visits far more new blocks than the
// snapshot holds.
func TestResumedChildCountsOnItsOwnTable(t *testing.T) {
	img, err := asm.Assemble(".entry e\n.text\ne: movi r1, 0x11\n ret\n")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(img, expr.NewSymbolTable(), nil)
	s := NewState(1)
	for pc := uint32(0); pc < 64; pc++ {
		for i := uint32(0); i <= pc%5; i++ {
			s.VisitBlock(0x100000 + pc*isa.InstrSize)
		}
	}
	snap := m.SnapshotState(s)
	if snap.BlockCount() != 64 || s.BlockCount() != 64 {
		t.Fatalf("snapshot counts %d blocks, running state %d, want 64 and 64", snap.BlockCount(), s.BlockCount())
	}

	c := m.ResumeState(snap)
	if c.BlockCount() != 64 {
		t.Fatalf("fresh resume counts %d blocks, want the snapshot's 64", c.BlockCount())
	}
	inBase := uint32(0x100000 + 7*isa.InstrSize) // visited 3 times before the snapshot
	fresh := uint32(0x200000)
	if n := c.VisitBlock(inBase); n != 4 {
		t.Fatalf("visit of a counted block = %d, want 4", n)
	}
	if n := c.VisitBlock(fresh); n != 1 {
		t.Fatalf("first visit of a new block = %d, want 1", n)
	}
	if n := c.VisitBlock(fresh); n != 2 {
		t.Fatalf("visit of a new block = %d, want 2", n)
	}
	for pc := uint32(1); pc <= 1000; pc++ {
		if n := c.VisitBlock(fresh + pc*isa.InstrSize); n != 1 {
			t.Fatalf("first visit of new block %d = %d, want 1", pc, n)
		}
	}
	if c.BlockCount() != 64+1+1000 || c.LoopCount(inBase) != 4 || c.LoopCount(fresh) != 2 {
		t.Fatalf("child counts %d blocks (inBase %d, fresh %d), want 1065 (4, 2)",
			c.BlockCount(), c.LoopCount(inBase), c.LoopCount(fresh))
	}
	if n := c.LoopCount(0x100000 + 9*isa.InstrSize); n != 5 {
		t.Fatalf("untouched block reads %d, want the snapshot's 5", n)
	}
	if snap.LoopCount(inBase) != 3 || snap.LoopCount(fresh) != 0 || snap.BlockCount() != 64 {
		t.Fatal("child visits reached the snapshot's counts")
	}
	if s.LoopCount(inBase) != 3 || s.LoopCount(fresh) != 0 || s.BlockCount() != 64 {
		t.Fatal("child visits reached the running state's counts")
	}
}

// TestConcurrentResumesKeepSnapshotCounts: one snapshot resumed from 100
// goroutines at once, each child counting visits on shared and new blocks,
// leaves the snapshot's counts exactly as they were (run under -race). Each
// goroutine resumes through ForkFrozen with an ID of its own, as fabric
// executors do: a machine, and its ID counter, is stepped by one goroutine.
func TestConcurrentResumesKeepSnapshotCounts(t *testing.T) {
	img, err := asm.Assemble(".entry e\n.text\ne: movi r1, 0x11\n ret\n")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(img, expr.NewSymbolTable(), nil)
	s := m.NewRootState()
	want := map[uint32]uint64{}
	for pc := uint32(0); pc < 16; pc++ {
		for i := uint32(0); i <= pc; i++ {
			s.VisitBlock(0x100000 + pc*isa.InstrSize)
		}
		want[0x100000+pc*isa.InstrSize] = uint64(pc + 1)
	}
	snap := m.SnapshotState(s)

	var wg sync.WaitGroup
	for g := 0; g < 100; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := snap.ForkFrozen(uint64(100 + g))
			for i := 0; i < 20; i++ {
				c.VisitBlock(0x100000 + uint32((g+i)%16)*isa.InstrSize)
				c.VisitBlock(0x300000 + uint32(g)*isa.InstrSize)
			}
			if again := snap.ForkFrozen(uint64(1000 + g)); again.LoopCount(0x100000) != 1 {
				t.Errorf("goroutine %d: re-resume reads %d, want 1", g, again.LoopCount(0x100000))
			}
		}(g)
	}
	wg.Wait()
	for pc, n := range want {
		if got := snap.LoopCount(pc); got != n {
			t.Fatalf("snapshot count of %#x = %d after concurrent resumes, want %d", pc, got, n)
		}
	}
	if snap.BlockCount() != len(want) {
		t.Fatalf("snapshot grew counts: %d blocks, want %d", snap.BlockCount(), len(want))
	}
}

// TestResumeIntoLeavesNothingStale: Machine.ResumeInto restores a snapshot
// into a finished state in place. The state must come out as a resume into
// a new State would — memory reads resolve through the new snapshot, not
// the read cache of the old one; no interrupt frame, pending fault, status
// or constraint survives; the block counts are the snapshot's — while its
// memory overlay and environment objects are reused.
func TestResumeIntoLeavesNothingStale(t *testing.T) {
	img, err := asm.Assemble(".entry e\n.text\ne: movi r1, 0x11\n ret\n")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(img, expr.NewSymbolTable(), nil)
	run := m.NewRootState()
	run.Kernel = &forkable{n: 1}
	run.Mem.Write(0x200000, 4, expr.Const(1))
	run.VisitBlock(0x100000)
	snapA := m.SnapshotState(run)
	run.Mem.Write(0x200000, 4, expr.Const(2))
	run.VisitBlock(0x100008)
	run.Kernel.(*forkable).n = 2
	snapB := m.SnapshotState(run)

	s := m.ResumeState(snapA)
	if got, _ := s.Mem.ReadConcrete(0x200000, 4); got != 1 { // caches snapA's page
		t.Fatalf("resume of A reads %d", got)
	}
	s.Mem.Write(0x300000, 4, expr.Const(9))
	s.PushInterrupt(0x100000)
	s.PendFault = Faultf("loop", 0x100000, "stale")
	s.Status = StatusBug
	s.AddConstraint(expr.Eq(m.Syms.Fresh("x", expr.OriginHardware, 0, 0), expr.Const(3)))
	for i := 0; i < 5; i++ {
		s.VisitBlock(0x100010)
	}
	mem, kern := s.Mem, s.Kernel

	r := m.ResumeInto(s, snapB)
	if r != s || r.Mem != mem || r.Kernel != kern {
		t.Fatal("ResumeInto did not reuse the state, its overlay and its kernel object")
	}
	if got, _ := r.Mem.ReadConcrete(0x200000, 4); got != 2 {
		t.Fatalf("restored state reads %d through a stale read cache, want snapshot B's 2", got)
	}
	if got, _ := r.Mem.ReadConcrete(0x300000, 4); got != 0 {
		t.Fatalf("restored state keeps its old private write: %d", got)
	}
	if r.PopInterrupt() || r.PendFault != nil || r.Status != StatusRunning || len(r.Constraints) != 0 {
		t.Fatal("restored state keeps an interrupt frame, pending fault, status or constraint")
	}
	if r.Kernel.(*forkable).n != 2 || r.BlockCount() != 2 || r.LoopCount(0x100010) != 0 || r.LoopCount(0x100008) != 1 {
		t.Fatal("restored state's environment or block counts are not snapshot B's")
	}
	if snapA.Kernel.(*forkable).n != 1 || snapA.BlockCount() != 1 {
		t.Fatal("restoring into the state changed snapshot A")
	}
}

// TestSnapshotLayers pins the block table's layering. A snapshot of a
// resumed path freezes, in its own layer, only the blocks the path visited
// since that resume, over the layer it resumed from. Resuming it, and
// resuming its parent snapshot and replaying the visits between the two,
// counts exactly as one path that was never snapshotted does. And no
// resume's visits ever change a snapshot's counts.
func TestSnapshotLayers(t *testing.T) {
	img, err := asm.Assemble(".entry e\n.text\ne: ret\n")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(img, expr.NewSymbolTable(), nil)
	pc := func(i uint32) uint32 { return 0x100000 + i*isa.InstrSize }
	var boot, mid, tail []uint32
	for i := uint32(0); i < 40; i++ { // 40 blocks, block i visited i%4+1 times
		for k := uint32(0); k <= i%4; k++ {
			boot = append(boot, pc(i))
		}
	}
	for i := uint32(30); i < 50; i++ { // 10 old blocks, 10 new ones
		mid = append(mid, pc(i), pc(i))
	}
	for i := uint32(0); i < 60; i += 3 {
		tail = append(tail, pc(i), pc(i+1), pc(i))
	}

	// layerCounts returns the counts a snapshot's own layer holds.
	layerCounts := func(snap *State) map[uint32]uint32 {
		out := map[uint32]uint32{}
		for _, e := range snap.blocks.base.slots {
			if e.n != 0 {
				out[e.pc] = e.n
			}
		}
		return out
	}
	// counts reads every block the test visits through LoopCount.
	counts := func(s *State) []uint64 {
		out := []uint64{uint64(s.BlockCount())}
		for i := uint32(0); i < 62; i++ {
			out = append(out, s.LoopCount(pc(i)))
		}
		return out
	}
	// replay visits seq on s and on the unsnapshotted reference path ref,
	// requiring the same VisitBlock return at every visit.
	replay := func(tag string, s, ref *State, seq []uint32) {
		t.Helper()
		for _, p := range seq {
			if got, want := s.VisitBlock(p), ref.VisitBlock(p); got != want {
				t.Fatalf("%s: VisitBlock(%#x) = %d, unsnapshotted path %d", tag, p, got, want)
			}
		}
		if got, want := counts(s), counts(ref); !slices.Equal(got, want) {
			t.Fatalf("%s: counts %v, unsnapshotted path %v", tag, got, want)
		}
	}
	fresh := func(seqs ...[]uint32) *State {
		s := NewState(m.newID())
		for _, seq := range seqs {
			for _, p := range seq {
				s.VisitBlock(p)
			}
		}
		return s
	}

	run := fresh(boot)
	snapA := m.SnapshotState(run) // layer 1: the boot
	if snapA.blocks.base.below != nil || len(layerCounts(snapA)) != 40 || snapA.BlockCount() != 40 {
		t.Fatalf("boot snapshot: layer of %d blocks over %p, %d counted; want 40 over nil",
			len(layerCounts(snapA)), snapA.blocks.base.below, snapA.BlockCount())
	}
	r := m.ResumeState(snapA)
	replay("resume of A, mid visits", r, fresh(boot), mid)
	snapB := m.SnapshotState(r) // layer 2: only what r visited since the resume
	want := map[uint32]uint32{}
	for i := uint32(30); i < 50; i++ {
		n := uint32(2)
		if i < 40 {
			n += i%4 + 1
		}
		want[pc(i)] = n
	}
	if got := layerCounts(snapB); !maps.Equal(got, want) {
		t.Fatalf("snapshot of a resumed path holds %v in its layer, want only the visits since the resume %v", got, want)
	}
	if snapB.blocks.base.below != snapA.blocks.base || snapB.BlockCount() != 50 {
		t.Fatalf("snapshot B: layer over %p (A's is %p), %d blocks; want A's layer, 50",
			snapB.blocks.base.below, snapA.blocks.base, snapB.BlockCount())
	}
	r2 := m.ResumeState(snapB)
	snapC := m.SnapshotState(r2) // nothing visited since the resume: B's layer again
	if snapC.blocks.base != snapB.blocks.base {
		t.Fatal("a snapshot with no visits since its resume made a layer of its own")
	}

	beforeA, beforeB, beforeC := counts(snapA), counts(snapB), counts(snapC)
	replay("resume of B", m.ResumeState(snapB), fresh(boot, mid), tail)
	replay("resume of C", m.ResumeState(snapC), fresh(boot, mid), tail)
	a := m.ResumeState(snapA)
	replay("resume of A, mid and tail", a, fresh(boot), append(append([]uint32(nil), mid...), tail...))
	// The same resumes again, restored in place into finished states whose
	// private tables hold stale counts.
	replay("resume of B into A's resume", m.ResumeInto(a, snapB), fresh(boot, mid), tail)
	replay("resume of A into the running state", m.ResumeInto(run, snapA), fresh(boot), mid)
	replay("resume of B into the first resume", m.ResumeInto(r, snapB), fresh(boot, mid), tail)

	if !slices.Equal(counts(snapA), beforeA) || !slices.Equal(counts(snapB), beforeB) ||
		!slices.Equal(counts(snapC), beforeC) {
		t.Fatal("resumes' visits changed a snapshot's counts")
	}
}
