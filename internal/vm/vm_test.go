package vm

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/binimg"
	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/solver"
)

// newTestMachine assembles src and prepares a machine plus a root state
// positioned at the entry point with LR = ExitAddr.
func newTestMachine(t *testing.T, src string) (*Machine, *State) {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := NewMachine(img, expr.NewSymbolTable(), solver.New())
	s := m.NewRootState()
	s.PC = img.Entry
	s.SetReg(isa.LR, expr.Const(ExitAddr))
	m.MarkBlockStart(s)
	return m, s
}

func runToEnd(t *testing.T, m *Machine, s *State) *State {
	t.Helper()
	final, forked, err := m.Run(s, 100000)
	if err != nil {
		t.Fatalf("run fault: %v (state %v)", err, final)
	}
	if len(forked) != 0 {
		t.Fatalf("unexpected forks: %d", len(forked))
	}
	return final
}

func TestStraightLineArithmetic(t *testing.T) {
	m, s := newTestMachine(t, `
.entry e
.text
e:
    movi r1, 6
    movi r2, 7
    mul  r0, r1, r2
    addi r0, r0, 8
    shli r0, r0, 1
    ret
`)
	final := runToEnd(t, m, s)
	if final.Status != StatusExited {
		t.Fatalf("status = %v", final.Status)
	}
	v, ok := final.RegConcrete(isa.R0)
	if !ok || v != 100 {
		t.Errorf("r0 = %v, want 100", final.Reg(isa.R0))
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m, s := newTestMachine(t, `
.entry e
.text
e:
    movi r1, buf
    movi r2, 0x1234
    stw  [r1+0], r2
    ldw  r0, [r1+0]
    ldb  r3, [r1+1]
    ldh  r4, [r1+0]
    ret
.data
buf: .word 0
`)
	final := runToEnd(t, m, s)
	if v, _ := final.RegConcrete(isa.R0); v != 0x1234 {
		t.Errorf("ldw = %#x", v)
	}
	if v, _ := final.RegConcrete(isa.R3); v != 0x12 {
		t.Errorf("ldb = %#x", v)
	}
	if v, _ := final.RegConcrete(isa.R4); v != 0x1234 {
		t.Errorf("ldh = %#x", v)
	}
}

func TestStackPushPop(t *testing.T) {
	m, s := newTestMachine(t, `
.entry e
.text
e:
    movi r1, 0xAA
    movi r2, 0xBB
    push r1
    push r2
    pop  r3
    pop  r4
    ret
`)
	final := runToEnd(t, m, s)
	if v, _ := final.RegConcrete(isa.R3); v != 0xBB {
		t.Errorf("r3 = %#x, want 0xBB (LIFO)", v)
	}
	if v, _ := final.RegConcrete(isa.R4); v != 0xAA {
		t.Errorf("r4 = %#x, want 0xAA", v)
	}
	if sp, _ := final.RegConcrete(isa.SP); sp != isa.StackBase {
		t.Errorf("sp = %#x, want restored %#x", sp, isa.StackBase)
	}
}

func TestConcreteBranchesAndLoop(t *testing.T) {
	// sum 1..5 with a loop.
	m, s := newTestMachine(t, `
.entry e
.text
e:
    movi r0, 0
    movi r1, 1
    movi r2, 6
loop:
    bgeu r1, r2, done
    add  r0, r0, r1
    addi r1, r1, 1
    jmp  loop
done:
    ret
`)
	final := runToEnd(t, m, s)
	if v, _ := final.RegConcrete(isa.R0); v != 15 {
		t.Errorf("sum = %d, want 15", v)
	}
}

func TestLocalCallReturn(t *testing.T) {
	m, s := newTestMachine(t, `
.entry e
.text
e:
    addi sp, sp, -4
    stw  [sp+0], lr
    movi r0, 20
    call double
    ldw  lr, [sp+0]
    addi sp, sp, 4
    ret
double:
    add  r0, r0, r0
    ret
`)
	final := runToEnd(t, m, s)
	if final.Status != StatusExited {
		t.Fatalf("status = %v", final.Status)
	}
	if v, _ := final.RegConcrete(isa.R0); v != 40 {
		t.Errorf("r0 = %d, want 40", v)
	}
}

func TestSymbolicBranchForks(t *testing.T) {
	m, s := newTestMachine(t, `
.entry e
.text
e:
    movi r2, 10
    bltu r1, r2, small
    movi r0, 2
    ret
small:
    movi r0, 1
    ret
`)
	// Make r1 symbolic: the branch must fork into both outcomes.
	sym := m.Syms.Fresh("input", expr.OriginArgument, 0, 0)
	s.SetReg(isa.R1, sym)

	var finals []*State
	work := []*State{s}
	for len(work) > 0 {
		st := work[0]
		work = work[1:]
		final, forked, err := m.Run(st, 1000)
		if err != nil {
			t.Fatalf("fault: %v", err)
		}
		work = append(work, forked...)
		if final.Status == StatusExited {
			finals = append(finals, final)
		}
	}
	if len(finals) != 2 {
		t.Fatalf("got %d exit states, want 2", len(finals))
	}
	seen := map[uint32]bool{}
	for _, f := range finals {
		v, ok := f.RegConcrete(isa.R0)
		if !ok {
			t.Fatalf("symbolic result in %v", f)
		}
		seen[v] = true
		// Each path's constraints must be satisfiable and consistent with
		// its outcome.
		model := m.Solver.Model(f.Constraints)
		if model == nil {
			t.Fatalf("path constraints unsolvable for %v", f)
		}
		in := expr.Eval(sym, model)
		if v == 1 && in >= 10 {
			t.Errorf("small path model gives input %d", in)
		}
		if v == 2 && in < 10 {
			t.Errorf("large path model gives input %d", in)
		}
	}
	if !seen[1] || !seen[2] {
		t.Errorf("outcomes = %v, want both 1 and 2", seen)
	}
}

func TestInfeasibleBranchNotForked(t *testing.T) {
	// r1 < 10 already constrained; a second identical test must not fork.
	m, s := newTestMachine(t, `
.entry e
.text
e:
    movi r2, 10
    bltu r1, r2, a
    movi r0, 9
    ret
a:
    bltu r1, r2, b
    movi r0, 8
    ret
b:
    movi r0, 1
    ret
`)
	sym := m.Syms.Fresh("input", expr.OriginArgument, 0, 0)
	s.SetReg(isa.R1, sym)

	exits := 0
	work := []*State{s}
	for len(work) > 0 {
		st := work[0]
		work = work[1:]
		final, forked, err := m.Run(st, 1000)
		if err != nil {
			t.Fatalf("fault: %v", err)
		}
		work = append(work, forked...)
		if final.Status == StatusExited {
			exits++
		}
	}
	if exits != 2 {
		t.Errorf("exit states = %d, want 2 (second branch must not fork)", exits)
	}
	if got := m.Forks; got != 1 {
		t.Errorf("forks = %d, want 1", got)
	}
}

func TestWildJumpIsBug(t *testing.T) {
	m, s := newTestMachine(t, `
.entry e
.text
e:
    movi r1, 0x12345678
    jr   r1
`)
	_, _, err := m.Run(s, 1000)
	if err == nil {
		t.Fatal("wild jump not detected")
	}
	f, ok := err.(*Fault)
	if !ok || f.Class != "memory" {
		t.Errorf("fault = %v", err)
	}
}

// TestFaultSite: a fault inside driver text is sited at its PC; a wild
// jump, which faults at its target, is sited at the block it jumped from.
func TestFaultSite(t *testing.T) {
	m, s := newTestMachine(t, `
.entry e
.text
e:
    movi r1, 0x12345678
    jmp  far
far:
    jr   r1
`)
	_, _, err := m.Run(s, 1000)
	f, ok := err.(*Fault)
	if !ok || f.PC != 0x12345678 {
		t.Fatalf("fault = %v, want a wild jump to 0x12345678", err)
	}
	far := m.Img.Entry + 2*isa.InstrSize
	if got := m.FaultSite(s, f.PC); got != far {
		t.Errorf("wild-jump site = %#x, want the jumping block %#x", got, far)
	}
	if got := m.FaultSite(s, m.Img.Entry+isa.InstrSize); got != m.Img.Entry+isa.InstrSize {
		t.Errorf("in-text site = %#x, want the fault pc %#x", got, m.Img.Entry+isa.InstrSize)
	}
}

func TestHalt(t *testing.T) {
	m, s := newTestMachine(t, ".entry e\n.text\ne: hlt\n")
	final, _, err := m.Run(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusHalted {
		t.Errorf("status = %v", final.Status)
	}
}

func TestMMIOReadsGoToDevice(t *testing.T) {
	m, s := newTestMachine(t, `
.entry e
.text
e:
    movi r1, 0xE0000000
    ldw  r0, [r1+0x10]
    stw  [r1+0x14], r0
    ret
`)
	var readAddr, writeAddr uint32
	m.ReadDevice = func(st *State, addr, size uint32) *expr.Expr {
		readAddr = addr
		return m.Syms.Fresh("hw", expr.OriginHardware, st.PC, st.ICount)
	}
	m.WriteDevice = func(st *State, addr, size uint32, v *expr.Expr) {
		writeAddr = addr
	}
	final := runToEnd(t, m, s)
	if readAddr != 0xE0000010 || writeAddr != 0xE0000014 {
		t.Errorf("MMIO dispatch: read %#x write %#x", readAddr, writeAddr)
	}
	if final.Reg(isa.R0).IsConst() {
		t.Error("device read should be symbolic")
	}
}

func TestPortIO(t *testing.T) {
	m, s := newTestMachine(t, `
.entry e
.text
e:
    movi r1, 0x20
    in   r0, r1
    out  r1, r0
    ret
`)
	var inPort, outPort uint32
	m.ReadPort = func(st *State, port uint32) *expr.Expr {
		inPort = port
		return expr.Const(0x5A)
	}
	m.WritePort = func(st *State, port uint32, v *expr.Expr) {
		outPort = port
	}
	final := runToEnd(t, m, s)
	if inPort != 0x20 || outPort != 0x20 {
		t.Errorf("ports: in %#x out %#x", inPort, outPort)
	}
	if v, _ := final.RegConcrete(isa.R0); v != 0x5A {
		t.Errorf("in value = %#x", v)
	}
}

func TestAPICallDispatch(t *testing.T) {
	m, s := newTestMachine(t, `
.import FakeAlloc
.entry e
.text
e:
    push lr
    movi r0, 64
    call FakeAlloc
    pop  lr
    ret
`)
	called := ""
	m.APICall = func(st *State, slot int) ([]*State, error) {
		called = m.Img.Imports[slot]
		st.SetReg(isa.R0, expr.Const(0xCAFE))
		return nil, nil
	}
	final := runToEnd(t, m, s)
	if called != "FakeAlloc" {
		t.Errorf("api called = %q", called)
	}
	if v, _ := final.RegConcrete(isa.R0); v != 0xCAFE {
		t.Errorf("r0 = %#x", v)
	}
	if final.Status != StatusExited {
		t.Errorf("status = %v", final.Status)
	}
}

func TestAPICallCanForkState(t *testing.T) {
	m, s := newTestMachine(t, `
.import MaybeFail
.entry e
.text
e:
    push lr
    call MaybeFail
    pop  lr
    movi r2, 0
    beq  r0, r2, failed
    movi r1, 1
    ret
failed:
    movi r1, 2
    ret
`)
	m.APICall = func(st *State, slot int) ([]*State, error) {
		alt := m.ForkState(st)
		st.SetReg(isa.R0, expr.Const(1))  // success
		alt.SetReg(isa.R0, expr.Const(0)) // failure
		return []*State{alt}, nil
	}
	var outcomes []uint32
	work := []*State{s}
	for len(work) > 0 {
		st := work[0]
		work = work[1:]
		final, forked, err := m.Run(st, 1000)
		if err != nil {
			t.Fatalf("fault: %v", err)
		}
		work = append(work, forked...)
		if final.Status == StatusExited {
			v, _ := final.RegConcrete(isa.R1)
			outcomes = append(outcomes, v)
		}
	}
	if len(outcomes) != 2 {
		t.Fatalf("outcomes = %v, want 2 paths", outcomes)
	}
}

func TestMemAccessHookVeto(t *testing.T) {
	m, s := newTestMachine(t, `
.entry e
.text
e:
    movi r1, 0x9000000
    ldw  r0, [r1+0]
    ret
`)
	m.OnMemAccess = func(st *State, pc, addr, size uint32, write bool, v *expr.Expr) error {
		if addr == 0x9000000 {
			return Faultf("memory", pc, "access to unmapped address %#x", addr)
		}
		return nil
	}
	_, _, err := m.Run(s, 100)
	if err == nil {
		t.Fatal("veto not raised")
	}
	if !strings.Contains(err.Error(), "unmapped") {
		t.Errorf("err = %v", err)
	}
}

func TestForkIsolation(t *testing.T) {
	// Writes in one fork must not leak into the sibling.
	m, _ := newTestMachine(t, ".entry e\n.text\ne: ret\n")
	root := m.NewRootState()
	root.Mem.Write(0x200000, 4, expr.Const(111))
	a := m.ForkState(root)
	b := m.ForkState(root)
	a.Mem.Write(0x200000, 4, expr.Const(222))
	if v := b.Mem.Read(0x200000, 4); !v.IsConst() || v.ConstVal() != 111 {
		t.Errorf("sibling sees %v, want 111", v)
	}
	if v := a.Mem.Read(0x200000, 4); v.ConstVal() != 222 {
		t.Errorf("writer sees %v, want 222", v)
	}
	if v := root.Mem.Read(0x200000, 4); v.ConstVal() != 111 {
		t.Errorf("parent sees %v, want 111", v)
	}
}

func TestChainedCOWDepthAndCache(t *testing.T) {
	mem := NewMemory()
	mem.Write(0x1000, 4, expr.Const(42))
	cur := mem
	for i := 0; i < 50; i++ {
		cur = cur.Fork()
	}
	if cur.Depth() != 50 {
		t.Errorf("depth = %d", cur.Depth())
	}
	if v := cur.Read(0x1000, 4); v.ConstVal() != 42 {
		t.Errorf("deep read = %v", v)
	}
	// After the first read the leaf must have cached the resolved page.
	if cur.cache == nil || len(cur.cache) == 0 {
		t.Error("read cache not populated")
	}
	// A local write invalidates the cache entry and owns the page.
	cur.Write(0x1000, 4, expr.Const(7))
	if v := cur.Read(0x1000, 4); v.ConstVal() != 7 {
		t.Errorf("read after write = %v", v)
	}
	if cur.LocalPages() != 1 {
		t.Errorf("local pages = %d", cur.LocalPages())
	}
}

func TestSymbolicMemoryBytes(t *testing.T) {
	mem := NewMemory()
	tab := expr.NewSymbolTable()
	sym := tab.Fresh("v", expr.OriginHardware, 0, 0)
	mem.Write(0x3000, 4, sym)
	got := mem.Read(0x3000, 4)
	// Reading back a stored symbolic word must be value-equivalent.
	for _, tv := range []uint32{0, 1, 0xDEADBEEF, 0xFFFFFFFF} {
		a := expr.Assignment{sym.Sym: tv}
		if expr.Eval(got, a) != tv {
			t.Errorf("read-back mismatch for %#x: %v", tv, got)
		}
	}
	// The byte re-assembly folds back to the stored word (and its low half).
	if !expr.Equal(got, sym) {
		t.Errorf("word read back as %v, want %v", got, sym)
	}
	if half, want := mem.Read(0x3000, 2), expr.And(expr.Const(0xFFFF), sym); !expr.Equal(half, want) {
		t.Errorf("halfword read back as %v, want %v", half, want)
	}
	if mem.SymbolicByteCount() != 4 {
		t.Errorf("symbolic bytes = %d", mem.SymbolicByteCount())
	}
	// Overwriting with a constant clears the overlay.
	mem.Write(0x3000, 4, expr.Const(5))
	if mem.SymbolicByteCount() != 0 {
		t.Errorf("symbolic bytes after overwrite = %d", mem.SymbolicByteCount())
	}
}

func TestMixedSymbolicConcreteHalfword(t *testing.T) {
	mem := NewMemory()
	tab := expr.NewSymbolTable()
	sym := tab.Fresh("b", expr.OriginPacket, 0, 0)
	mem.StoreByte(0x4000, expr.ZeroExt8(sym))
	mem.StoreByte(0x4001, expr.Const(0xAB))
	w := mem.Read(0x4000, 2)
	a := expr.Assignment{sym.Sym: 0xCD}
	if v := expr.Eval(w, a); v != 0xABCD {
		t.Errorf("mixed halfword = %#x, want 0xabcd", v)
	}
}

func TestInterruptPushPop(t *testing.T) {
	m, s := newTestMachine(t, `
.entry e
.text
e:
    movi r0, 5
    movi r1, 6
    ret
isr:
    movi r0, 99
    movi r1, 99
    ret
`)
	isrPC := m.Img.Entry + 3*isa.InstrSize
	// Execute first instruction, inject interrupt, run ISR, resume.
	next, err := m.Step(s)
	if err != nil || len(next) != 1 {
		t.Fatalf("step: %v %v", next, err)
	}
	s = next[0]
	savedPC := s.PC
	s.PushInterrupt(isrPC)
	if s.InInterrupt != 1 {
		t.Fatal("interrupt not active")
	}
	final := runToEnd(t, m, s)
	if final.Status != StatusExited {
		t.Fatalf("status = %v", final.Status)
	}
	// ISR clobbered r0/r1 with 99, but the frame restore puts the
	// interrupted context back, so the main path result must be intact.
	if v, _ := final.RegConcrete(isa.R0); v != 5 {
		t.Errorf("r0 = %d, want 5 (context restored)", v)
	}
	if v, _ := final.RegConcrete(isa.R1); v != 6 {
		t.Errorf("r1 = %d, want 6", v)
	}
	_ = savedPC
}

func TestPopInterruptWithoutFrameIsBug(t *testing.T) {
	m, s := newTestMachine(t, ".entry e\n.text\ne: ret\n")
	s.SetReg(isa.LR, expr.Const(IntrRetAddr))
	_, _, err := m.Run(s, 10)
	if err == nil {
		t.Fatal("stray interrupt return not flagged")
	}
}

func TestTraceEventsRecorded(t *testing.T) {
	m, s := newTestMachine(t, `
.import API
.entry e
.text
e:
    push lr
    movi r1, buf
    stw  [r1+0], r1
    call API
    pop  lr
    ret
.data
buf: .word 0
`)
	m.APICall = func(st *State, slot int) ([]*State, error) { return nil, nil }
	final := runToEnd(t, m, s)
	evs := final.Trace.Path()
	var kinds []EventKind
	for _, e := range evs {
		kinds = append(kinds, e.Kind)
	}
	has := func(k EventKind) bool {
		for _, kk := range kinds {
			if kk == k {
				return true
			}
		}
		return false
	}
	for _, k := range []EventKind{EvBlock, EvMem, EvAPICall, EvAPIReturn, EvEntryDone} {
		if !has(k) {
			t.Errorf("trace missing %v events (have %v)", k, kinds)
		}
	}
}

func TestTraceForkChain(t *testing.T) {
	root := &TraceNode{}
	root.Append(Event{Kind: EvBlock, PC: 1})
	child := &TraceNode{parent: root}
	child.Append(Event{Kind: EvBlock, PC: 2})
	path := child.Path()
	if len(path) != 2 || path[0].PC != 1 || path[1].PC != 2 {
		t.Errorf("path = %v", path)
	}
	if child.Len() != 2 || root.Len() != 1 {
		t.Errorf("lengths: child %d root %d", child.Len(), root.Len())
	}
}

func TestDivideByZeroConvention(t *testing.T) {
	m, s := newTestMachine(t, `
.entry e
.text
e:
    movi r1, 10
    movi r2, 0
    divu r0, r1, r2
    remu r3, r1, r2
    ret
`)
	final := runToEnd(t, m, s)
	if v, _ := final.RegConcrete(isa.R0); v != 0xFFFFFFFF {
		t.Errorf("div by zero = %#x", v)
	}
	if v, _ := final.RegConcrete(isa.R3); v != 10 {
		t.Errorf("rem by zero = %d", v)
	}
}

func TestImageLoadedIntoMemory(t *testing.T) {
	img, err := asm.Assemble(".entry e\n.text\ne: ret\n.data\nd: .word 0xFEEDFACE\n")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(img, expr.NewSymbolTable(), solver.New())
	s := m.NewRootState()
	if v := s.Mem.Read(img.DataBase(), 4); !v.IsConst() || v.ConstVal() != 0xFEEDFACE {
		t.Errorf("data word = %v", v)
	}
	got, ok := s.Mem.ReadBytesConcrete(isa.ImageBase, uint32(len(img.Text)))
	if !ok || string(got) != string(img.Text) {
		t.Error("text not loaded verbatim")
	}
}

func TestReadCString(t *testing.T) {
	mem := NewMemory()
	mem.WriteBytes(0x5000, append([]byte("MaximumMulticastList"), 0))
	s, ok := mem.ReadCString(0x5000, 64)
	if !ok || s != "MaximumMulticastList" {
		t.Errorf("ReadCString = %q, %v", s, ok)
	}
	if _, ok := mem.ReadCString(0x5000, 5); ok {
		t.Error("unterminated read should fail")
	}
}

func TestStatusStrings(t *testing.T) {
	for st := StatusRunning; st <= StatusInfeasible; st++ {
		if st.String() == "unknown" {
			t.Errorf("status %d has no name", st)
		}
	}
}

func TestDisassembleListing(t *testing.T) {
	img, _ := asm.Assemble(".entry e\n.text\ne: movi r0, 1\n ret\n")
	dis := binimg.Disassemble(img)
	if !strings.Contains(dis, "movi r0, 0x1") || !strings.Contains(dis, "ret") {
		t.Errorf("disassembly:\n%s", dis)
	}
}

// TestMachineStepCounts: a state run on a machine computes the loop's
// result, and the machine counts exactly that state's steps and no forks.
func TestMachineStepCounts(t *testing.T) {
	m, s := newTestMachine(t, `
.entry e
.text
e:
    movi r2, 0
loop:
    addi r0, r0, 3
    addi r1, r1, -1
    bne  r1, r2, loop
    ret
`)
	const n = 40
	s.SetReg(isa.R1, expr.Const(n))
	final, _, err := m.Run(s, 100000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if final.Status != StatusExited {
		t.Errorf("status = %v", final.Status)
	}
	if v, ok := final.RegConcrete(isa.R0); !ok || v != 3*n {
		t.Errorf("r0 = %v, want %d", final.Reg(isa.R0), 3*n)
	}
	// movi, n loop bodies of three, ret; then the dispatch that finds the
	// exit address.
	instrs := uint64(1 + 3*n + 1)
	if final.ICount != instrs {
		t.Errorf("ICount = %d, want %d", final.ICount, instrs)
	}
	if m.Steps != instrs+1 {
		t.Errorf("Steps = %d, want %d", m.Steps, instrs+1)
	}
	if m.Forks != 0 {
		t.Errorf("Forks = %d, want 0", m.Forks)
	}
}

// TestPendFaultTravelsWithState: a fault left pending on a state by a hook
// is raised on that state's next step — and on a forked child, it travels
// with the child instead of leaking to an unrelated state.
func TestPendFaultTravelsWithState(t *testing.T) {
	m, s := newTestMachine(t, `
.entry e
.text
e:
    movi r0, 1
    movi r0, 2
    ret
`)
	s.PendFault = Faultf("loop", s.PC, "planted")
	next, err := m.Step(s)
	if err == nil || next != nil {
		t.Fatalf("pending fault not raised: next=%v err=%v", next, err)
	}
	f, ok := err.(*Fault)
	if !ok || f.Msg != "planted" || s.Status != StatusBug {
		t.Fatalf("fault = %v, status = %v", err, s.Status)
	}
	if s.PendFault != nil {
		t.Fatal("pending fault not consumed")
	}

	// Fork: the child inherits the pending fault; an unrelated state is
	// untouched.
	m2, p := newTestMachine(t, `
.entry e
.text
e:
    movi r0, 1
    ret
`)
	p.PendFault = Faultf("loop", p.PC, "inherited")
	child := p.Fork(99)
	if child.PendFault == nil || child.PendFault.Msg != "inherited" {
		t.Fatalf("fork dropped the pending fault: %v", child.PendFault)
	}
	if _, err := m2.Step(child); err == nil {
		t.Fatal("child did not raise inherited fault")
	}
	clean := m2.NewRootState()
	if clean.PendFault != nil {
		t.Fatal("unrelated state has a pending fault")
	}
}
