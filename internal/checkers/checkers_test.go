package checkers

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/solver"
	"repro/internal/vm"
)

func stateWithKernel() (*vm.State, *kernel.KState) {
	s := vm.NewState(1)
	ks := kernel.NewKState()
	ks.Grant(kernel.Region{Lo: isa.ImageBase, Hi: isa.ImageBase + 0x1000, Kind: kernel.RegionImage, Writable: true})
	s.Kernel = ks
	return s, ks
}

func TestMemoryCheckerNullPage(t *testing.T) {
	c := NewMemoryChecker()
	s, _ := stateWithKernel()
	err := c.Check(s, 0x100000, 0x10, 4, false)
	if err == nil || !strings.Contains(err.Error(), "null-pointer") {
		t.Errorf("null read: %v", err)
	}
	if c.Vetoes != 1 {
		t.Errorf("vetoes = %d", c.Vetoes)
	}
}

func TestMemoryCheckerImageGrant(t *testing.T) {
	c := NewMemoryChecker()
	s, _ := stateWithKernel()
	if err := c.Check(s, 0x100000, isa.ImageBase+0x100, 4, true); err != nil {
		t.Errorf("granted write rejected: %v", err)
	}
	if err := c.Check(s, 0x100000, isa.ImageBase+0x2000, 4, false); err == nil {
		t.Error("ungranted read accepted")
	}
}

func TestMemoryCheckerReadOnlyRegion(t *testing.T) {
	c := NewMemoryChecker()
	s, ks := stateWithKernel()
	ks.Grant(kernel.Region{Lo: 0x300000, Hi: 0x300100, Kind: kernel.RegionParam, Writable: false})
	if err := c.Check(s, 0, 0x300010, 4, false); err != nil {
		t.Errorf("read of read-only region rejected: %v", err)
	}
	err := c.Check(s, 0, 0x300010, 4, true)
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Errorf("write to read-only region: %v", err)
	}
}

func TestMemoryCheckerStackRule(t *testing.T) {
	c := NewMemoryChecker()
	s, _ := stateWithKernel()
	// SP defaults to StackBase; lower it to make room above.
	sp := isa.StackBase - 0x100
	s.SetReg(isa.SP, expr.Const(sp))
	// At/above SP: fine.
	if err := c.Check(s, 0, sp+8, 4, true); err != nil {
		t.Errorf("access above sp rejected: %v", err)
	}
	// Below SP: prohibited (§3.1.1 — interrupt handlers may clobber it).
	err := c.Check(s, 0, sp-8, 4, false)
	if err == nil || !strings.Contains(err.Error(), "below the stack pointer") {
		t.Errorf("below-sp access: %v", err)
	}
}

func TestMemoryCheckerPageableAtDispatch(t *testing.T) {
	c := NewMemoryChecker()
	s, ks := stateWithKernel()
	ks.Grant(kernel.Region{Lo: 0x400000, Hi: 0x400100, Kind: kernel.RegionAlloc, Writable: true, Pageable: true})
	if err := c.Check(s, 0, 0x400010, 4, false); err != nil {
		t.Errorf("pageable at passive rejected: %v", err)
	}
	ks.IRQL = kernel.DispatchLevel
	err := c.Check(s, 0, 0x400010, 4, false)
	if err == nil || !strings.Contains(err.Error(), "pageable") {
		t.Errorf("pageable at dispatch: %v", err)
	}
}

func TestLeakCheckerConfigHandle(t *testing.T) {
	s, ks := stateWithKernel()
	ks.OpenConfig("NdisOpenConfiguration", 0x1234)
	var lc LeakChecker
	// Successful init: handles may stay open (driver keeps them... actually
	// our kernel model closes them; but the checker only gates failures).
	if err := lc.CheckEntryExit(s, "Initialize", kernel.StatusSuccess); err != nil {
		t.Errorf("success path flagged: %v", err)
	}
	err := lc.CheckEntryExit(s, "Initialize", kernel.StatusFailure)
	if err == nil || !strings.Contains(err.Error(), "configuration handle") {
		t.Errorf("failed init with open handle: %v", err)
	}
}

func TestLeakCheckerAllocsAfterHalt(t *testing.T) {
	s, ks := stateWithKernel()
	ks.HeapAlloc(64, "buf", "pool", 1, 0x2000)
	var lc LeakChecker
	err := lc.CheckEntryExit(s, "Halt", kernel.StatusSuccess)
	if err == nil || !strings.Contains(err.Error(), "not freed") {
		t.Errorf("halt with live alloc: %v", err)
	}
}

// TestLeakCheckerNamesPoolTag: a driver-tagged pool block keeps its raw
// tag word, and the leak message formats it as "tag%08x".
func TestLeakCheckerNamesPoolTag(t *testing.T) {
	s, ks := stateWithKernel()
	if _, err := ks.HeapAllocRecord(kernel.Alloc{Size: 64, Kind: "pool", PoolTag: 0x4e445349, PC: 0x2000}); err != nil {
		t.Fatal(err)
	}
	var lc LeakChecker
	err := lc.CheckEntryExit(s, "Halt", kernel.StatusSuccess)
	want := `1 allocation(s) not freed after Halt (first: pool "tag4e445349", 64 bytes, allocated at pc 0x2000)`
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("leak message = %v, want it to contain %s", err, want)
	}
}

func TestLeakCheckerHeldSpinlockAnyEntry(t *testing.T) {
	s, ks := stateWithKernel()
	ks.SetSpinlock(0x500, kernel.Spin{Held: true})
	var lc LeakChecker
	err := lc.CheckEntryExit(s, "Send", kernel.StatusSuccess)
	if err == nil || !strings.Contains(err.Error(), "spinlock") {
		t.Errorf("held lock at exit: %v", err)
	}
}

func TestLeakCheckerCleanState(t *testing.T) {
	s, _ := stateWithKernel()
	var lc LeakChecker
	for _, entry := range []string{"Initialize", "Halt", "Send"} {
		if err := lc.CheckEntryExit(s, entry, kernel.StatusSuccess); err != nil {
			t.Errorf("%s clean exit flagged: %v", entry, err)
		}
	}
}

func TestLoopChecker(t *testing.T) {
	lc := NewLoopChecker(5)
	s := vm.NewState(7)
	for i := 0; i < 4; i++ {
		if _, err := lc.Visit(s, 0x100100); err != nil {
			t.Fatalf("early trigger at %d: %v", i, err)
		}
	}
	_, err := lc.Visit(s, 0x100100)
	if err == nil || !strings.Contains(err.Error(), "infinite loop") {
		t.Errorf("threshold: %v", err)
	}
	// Distinct states count separately.
	s2 := vm.NewState(8)
	if _, err := lc.Visit(s2, 0x100100); err != nil {
		t.Errorf("fresh state triggered: %v", err)
	}
	// Forked children restart the count: State.Fork does not carry the
	// loop accounting (loop detection is per contiguous path segment).
	child := s.Fork(9)
	if n := child.LoopCount(0x100100); n != 0 {
		t.Errorf("fork inherited loop counts: %d", n)
	}
	if _, err := lc.Visit(child, 0x100100); err != nil {
		t.Errorf("fork triggered immediately: %v", err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		class, msg string
		inIntr     bool
		want       string
	}{
		{"memory", "null-pointer dereference: write of 4 bytes", false, "segmentation fault"},
		{"memory", "write of 4 bytes at unmapped address", false, "memory corruption"},
		{"memory", "read of 4 bytes at unmapped address", false, "segmentation fault"},
		{"memory", "read of 4 bytes at unmapped address", true, "race condition"},
		{"leak", "whatever", false, "resource leak"},
		{"crash", "BSOD", false, "kernel crash"},
		{"crash", "BSOD", true, "race condition"},
		{"deadlock", "self", false, "deadlock"},
		{"irql", "x", false, "kernel crash"},
		{"spinlock", "x", false, "kernel crash"},
		{"loop", "x", false, "hang"},
	}
	for _, tc := range cases {
		s := vm.NewState(1)
		if tc.inIntr {
			s.PushInterrupt(0x100000)
		}
		f := vm.Faultf(tc.class, 0, "%s", tc.msg)
		if got := Classify(f, s); got != tc.want {
			t.Errorf("Classify(%s,%q,intr=%v) = %q, want %q", tc.class, tc.msg, tc.inIntr, got, tc.want)
		}
	}
}

func TestClassifyISREntry(t *testing.T) {
	s := vm.NewState(1)
	s.EntryName = "ISR"
	f := vm.Faultf("crash", 0, "x")
	if got := Classify(f, s); got != "race condition" {
		t.Errorf("ISR-entry fault = %q", got)
	}
}

// TestLoopStraddlingSnapshotFiresAtThreshold: an infinite loop whose visits
// straddle snapshot points fires at exactly Threshold visits of its block,
// at the same instruction, whether the path runs cold or is resumed from a
// snapshot (once, or from a snapshot of a resumed state) — the resumed
// state's inherited counts plus its own visits must add up to the cold count.
func TestLoopStraddlingSnapshotFiresAtThreshold(t *testing.T) {
	img, err := asm.Assemble(".entry e\n.text\ne:\n    movi r1, 0\nloop:\n    addi r1, r1, 1\n    jmp loop\n")
	if err != nil {
		t.Fatal(err)
	}
	const threshold = 50
	loopPC := isa.ImageBase + isa.InstrSize
	m := vm.NewMachine(img, expr.NewSymbolTable(), solver.New())
	lc := NewLoopChecker(threshold)
	m.OnBlock = func(s *vm.State, pc uint32) {
		if _, err := lc.Visit(s, pc); err != nil {
			s.PendFault = err.(*vm.Fault)
		}
	}
	// run steps s until it faults, snapshotting and resuming each time the
	// loop block's count reaches one of the given visit counts.
	run := func(snapAt ...uint64) (uint64, *vm.Fault) {
		s := m.NewRootState()
		s.PC = img.Entry
		m.MarkBlockStart(s)
		for steps := 0; steps < 10_000; steps++ {
			if len(snapAt) > 0 && s.LoopCount(loopPC) == snapAt[0] && !s.BlockStart {
				s = m.ResumeState(m.SnapshotState(s))
				snapAt = snapAt[1:]
			}
			if _, err := m.Step(s); err != nil {
				return s.ICount, err.(*vm.Fault)
			}
		}
		t.Fatal("loop never reported")
		return 0, nil
	}
	coldAt, coldFault := run()
	if !strings.Contains(coldFault.Msg, "executed 50 times") {
		t.Fatalf("cold fault = %v, want it at exactly %d visits", coldFault, threshold)
	}
	for _, snaps := range [][]uint64{{1}, {20}, {threshold - 1}, {10, 30}, {5, 6, 48}} {
		at, f := run(snaps...)
		if at != coldAt || f.Msg != coldFault.Msg || f.PC != coldFault.PC {
			t.Errorf("snapshots at visits %v: fault %q at icount %d, cold %q at %d", snaps, f.Msg, at, coldFault.Msg, coldAt)
		}
	}
}
