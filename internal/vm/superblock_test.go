package vm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/solver"
)

// Superblock execution (span.go) must be observationally identical to the
// per-instruction step loop: same final registers and memory, same ICount
// and machine Steps accounting, same trace event chains, same faults at the
// same instants. These tests run every program twice — superblocks on
// (default) and off (Machine.DisableSuperblocks) — and compare everything.

// sbMachine assembles src into a machine + entry state, with the
// superblock fast path enabled or disabled.
func sbMachine(t *testing.T, src string, disable bool) (*Machine, *State) {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := NewMachine(img, expr.NewSymbolTable(), solver.New())
	m.DisableSuperblocks = disable
	s := m.NewRootState()
	s.PC = img.Entry
	s.SetReg(isa.LR, expr.Const(ExitAddr))
	m.MarkBlockStart(s)
	return m, s
}

// sbStateSig summarizes everything observable about a final state: status,
// every register expression, ICount, and the full trace event chain.
func sbStateSig(s *State) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "status=%v pc=%#x icount=%d\n", s.Status, s.PC, s.ICount)
	for r := uint8(0); r < isa.NumRegs; r++ {
		fmt.Fprintf(&sb, "r%d=%v\n", r, s.Reg(r))
	}
	if s.Trace != nil {
		for _, ev := range s.Trace.Path() {
			fmt.Fprintf(&sb, "ev %v seq=%d pc=%#x addr=%#x name=%q taken=%v forked=%v val=%v\n",
				ev.Kind, ev.Seq, ev.PC, ev.Addr, ev.Name, ev.Taken, ev.Forked, ev.Val)
		}
	}
	return sb.String()
}

// sbRunAll drains a state and all its forks to completion, returning the
// final-state signatures in deterministic exploration order plus any fault.
func sbRunAll(t *testing.T, m *Machine, s *State) (sigs []string, faults []string) {
	t.Helper()
	work := []*State{s}
	for len(work) > 0 {
		st := work[0]
		work = work[1:]
		final, forked, err := m.Run(st, 100000)
		work = append(work, forked...)
		if err != nil {
			faults = append(faults, fmt.Sprintf("%v @ %s", err, sbStateSig(final)))
			continue
		}
		sigs = append(sigs, sbStateSig(final))
	}
	return sigs, faults
}

// sbCompare runs src in both modes, optionally preparing each root state,
// and fails on any observable divergence (including the machine's Steps
// count after the full drain).
func sbCompare(t *testing.T, src string, prep func(m *Machine, s *State)) {
	t.Helper()
	run := func(disable bool) (sigs, faults []string, steps uint64) {
		m, s := sbMachine(t, src, disable)
		if prep != nil {
			prep(m, s)
		}
		sigs, faults = sbRunAll(t, m, s)
		return sigs, faults, m.Steps
	}
	onSigs, onFaults, onSteps := run(false)
	offSigs, offFaults, offSteps := run(true)
	if len(onSigs) != len(offSigs) {
		t.Fatalf("final states: %d with superblocks, %d without", len(onSigs), len(offSigs))
	}
	for i := range onSigs {
		if onSigs[i] != offSigs[i] {
			t.Errorf("state %d diverged:\n--- superblocks ---\n%s--- per-instruction ---\n%s",
				i, onSigs[i], offSigs[i])
		}
	}
	if len(onFaults) != len(offFaults) {
		t.Fatalf("faults: %d with superblocks, %d without", len(onFaults), len(offFaults))
	}
	for i := range onFaults {
		if onFaults[i] != offFaults[i] {
			t.Errorf("fault %d diverged:\n--- superblocks ---\n%s--- per-instruction ---\n%s",
				i, onFaults[i], offFaults[i])
		}
	}
	if onSteps != offSteps {
		t.Errorf("machine Steps = %d with superblocks, %d without", onSteps, offSteps)
	}
}

func TestSuperblockStraightLine(t *testing.T) {
	sbCompare(t, `
.entry e
.text
e:
    movi r1, 6
    movi r2, 7
    mul  r0, r1, r2
    addi r0, r0, 8
    shli r0, r0, 1
    xor  r3, r0, r1
    sub  r4, r3, r2
    ret
`, nil)
}

func TestSuperblockLoopsAndBranches(t *testing.T) {
	// Loop bodies are spans re-entered from block starts every iteration.
	sbCompare(t, `
.entry e
.text
e:
    movi r0, 0
    movi r1, 1
    movi r2, 50
loop:
    add  r0, r0, r1
    addi r1, r1, 1
    addi r3, r1, 0
    andi r3, r3, 1
    bltu r1, r2, loop
    ret
`, nil)
}

func TestSuperblockMemoryAndStack(t *testing.T) {
	// Loads, stores, push/pop all bail to the general path mid-span; the
	// scratch registers must be written back and resumed exactly.
	sbCompare(t, `
.entry e
.text
e:
    movi r1, buf
    movi r2, 0xBEEF
    addi r3, r2, 1
    stw  [r1+0], r2
    addi r4, r3, 2
    ldw  r5, [r1+0]
    push r5
    addi r6, r5, 3
    pop  r7
    ret
.data
buf: .word 0
`, nil)
}

func TestSuperblockSymbolicOperandBailout(t *testing.T) {
	// r9 is symbolic: the span's fast path must hand mid-span instructions
	// touching it to the general executor without disturbing order.
	sbCompare(t, `
.entry e
.text
e:
    movi r1, 3
    addi r2, r1, 4
    add  r3, r9, r2
    addi r4, r3, 5
    xori r5, r4, 0xFF
    ret
`, func(m *Machine, s *State) {
		s.SetReg(isa.R9, m.Syms.Fresh("input", expr.OriginArgument, 0, 0))
	})
}

func TestSuperblockSymbolicForkMidProgram(t *testing.T) {
	// A symbolic branch forks; both children re-enter spans and must drain
	// to the same two exit states either way.
	sbCompare(t, `
.entry e
.text
e:
    movi r2, 10
    addi r3, r2, 1
    bltu r1, r2, small
    movi r0, 2
    addi r4, r0, 7
    ret
small:
    movi r0, 1
    addi r4, r0, 9
    ret
`, func(m *Machine, s *State) {
		s.SetReg(isa.R1, m.Syms.Fresh("input", expr.OriginArgument, 0, 0))
	})
}

func TestSuperblockMidSpanFault(t *testing.T) {
	// OnMemAccess raises a fault at the third instruction of a span: the
	// fast path must surface it at the exact instant with exact accounting.
	hook := func(m *Machine, s *State) {
		m.OnMemAccess = func(_ *State, pc, addr, size uint32, write bool, _ *expr.Expr) error {
			if write {
				return Faultf("test-bug", pc, "forbidden store to %#x", addr)
			}
			return nil
		}
	}
	sbCompare(t, `
.entry e
.text
e:
    movi r1, buf
    addi r2, r1, 0
    stw  [r1+0], r2
    addi r3, r2, 1
    ret
.data
buf: .word 0
`, hook)
}

func TestSuperblockWildJumpAfterSpan(t *testing.T) {
	// The wild JR ends the span (control flow): the fault must carry the
	// same PC and instruction count in both modes.
	sbCompare(t, `
.entry e
.text
e:
    movi r1, 0x12345678
    addi r2, r1, 1
    jr   r1
`, nil)
}

func TestSuperblockBudgetExhaustionResumesMidSpan(t *testing.T) {
	// A budget smaller than the span must stop exactly at the budgeted
	// instruction, leave the state resumable mid-span, and produce the same
	// final state when stepping continues.
	src := `
.entry e
.text
e:
    movi r0, 1
    addi r0, r0, 2
    addi r0, r0, 4
    addi r0, r0, 8
    addi r0, r0, 16
    ret
`
	m, s := sbMachine(t, src, false)
	if _, err := m.StepSpan(s, 3); err != nil {
		t.Fatalf("span: %v", err)
	}
	if s.ICount != 3 {
		t.Fatalf("ICount = %d after budget 3, want 3", s.ICount)
	}
	if want := isa.ImageBase + 3*isa.InstrSize; s.PC != want {
		t.Fatalf("PC = %#x mid-span, want %#x", s.PC, want)
	}
	if got := m.Steps; got != 3 {
		t.Fatalf("machine Steps = %d after budget 3, want 3", got)
	}
	// Resume mid-span to completion and compare against per-instruction.
	final, forked, err := m.Run(s, 100000)
	if err != nil || len(forked) != 0 {
		t.Fatalf("resume: err=%v forks=%d", err, len(forked))
	}
	mo, so := sbMachine(t, src, true)
	finalOff, _, err := mo.Run(so, 100000)
	if err != nil {
		t.Fatalf("off run: %v", err)
	}
	if a, b := sbStateSig(final), sbStateSig(finalOff); a != b {
		t.Errorf("mid-span resume diverged:\n--- resumed ---\n%s--- per-instruction ---\n%s", a, b)
	}
	if v, _ := final.RegConcrete(isa.R0); v != 31 {
		t.Errorf("r0 = %d, want 31", v)
	}
}

func TestSpanLenTable(t *testing.T) {
	m, _ := sbMachine(t, `
.entry e
.text
e:
    movi r0, 1
    addi r0, r0, 1
    addi r0, r0, 1
    jmp  tail
tail:
    addi r0, r0, 1
    ret
`, false)
	want := []uint32{3, 2, 1, 0, 1, 0}
	if len(m.spanLen) != len(want) {
		t.Fatalf("spanLen has %d entries, want %d", len(m.spanLen), len(want))
	}
	for i, w := range want {
		if m.spanLen[i] != w {
			t.Errorf("spanLen[%d] = %d, want %d", i, m.spanLen[i], w)
		}
	}
}
