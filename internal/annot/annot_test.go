package annot

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/solver"
	"repro/internal/vm"
)

func harness(t *testing.T, src string) (*kernel.Kernel, *vm.State) {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := vm.NewMachine(img, expr.NewSymbolTable(), solver.New())
	k := kernel.New(m)
	InstallAll(k)
	s := m.NewRootState()
	ks := kernel.NewKState()
	ks.Grant(kernel.Region{Lo: isa.ImageBase, Hi: img.LimitVA(), Kind: kernel.RegionImage, Writable: true})
	ks.Registry["Speed"] = 100
	s.Kernel = ks
	k.InvokeSym(s, "DriverEntry", img.Entry)
	return k, s
}

func drain(t *testing.T, k *kernel.Kernel, s *vm.State) []*vm.State {
	t.Helper()
	var finals []*vm.State
	work := []*vm.State{s}
	for len(work) > 0 {
		st := work[0]
		work = work[1:]
		final, forked, err := k.M.Run(st, 100000)
		if err != nil {
			t.Fatalf("fault: %v", err)
		}
		work = append(work, forked...)
		if final.Status == vm.StatusExited {
			finals = append(finals, final)
		}
	}
	return finals
}

// TestRegistryValueBecomesSymbolic is the paper's flagship annotation
// (§3.4.1): a successful NdisReadConfiguration returns a fresh symbolic
// integer constrained non-negative, forking driver branches on it.
func TestRegistryValueBecomesSymbolic(t *testing.T) {
	k, s := harness(t, `
.import NdisOpenConfiguration
.import NdisReadConfiguration
.entry e
.text
e:
    push lr
    addi sp, sp, -12
    mov  r0, sp
    addi r1, sp, 4
    call NdisOpenConfiguration
    mov  r0, sp
    addi r1, sp, 8
    ldw  r2, [sp+4]
    movi r3, name
    call NdisReadConfiguration
    ldw  r4, [sp+8]
    ldw  r4, [r4+4]       ; IntegerData: symbolic
    movi r12, 50
    bltu r4, r12, small
    movi r5, 1
    jmp  out
small:
    movi r5, 2
out:
    addi sp, sp, 12
    pop  lr
    mov  r0, r5
    ret
.data
name: .asciz "Speed"
`)
	finals := drain(t, k, s)
	if len(finals) != 2 {
		t.Fatalf("paths = %d, want 2 (the symbolic registry value must fork the branch)", len(finals))
	}
	// The constraint symb >= 0 (signed) must be on both paths' models.
	for _, f := range finals {
		m := k.M.Solver.Model(f.Constraints)
		if m == nil {
			t.Fatal("unsolvable path")
		}
	}
}

// TestAllocFailureForkBounded: each allocation call forks at most one
// failure alternative, and the counter bounds total forks per path.
func TestAllocFailureForkBounded(t *testing.T) {
	k, s := harness(t, `
.import ExAllocatePoolWithTag
.entry e
.text
e:
    push lr
    movi r0, 0
    movi r1, 16
    movi r2, 1
    call ExAllocatePoolWithTag
    movi r0, 0
    movi r1, 16
    movi r2, 2
    call ExAllocatePoolWithTag
    pop  lr
    movi r0, 0
    ret
`)
	finals := drain(t, k, s)
	// success+success, success+fail, fail+success, fail+fail = 4 paths.
	if len(finals) != 4 {
		t.Fatalf("paths = %d, want 4", len(finals))
	}
	for _, f := range finals {
		if kernel.Of(f).AllocFailForks > MaxAllocFailForks {
			t.Error("fork bound exceeded")
		}
	}
}

// TestFailureAlternativeIsClean: on the forked failure path the allocation
// must be undone — no grant, no leak-checker food.
func TestFailureAlternativeIsClean(t *testing.T) {
	k, s := harness(t, `
.import NdisAllocateMemoryWithTag
.entry e
.text
e:
    push lr
    addi sp, sp, -4
    mov  r0, sp
    movi r1, 64
    movi r2, 7
    call NdisAllocateMemoryWithTag
    ldw  r1, [sp+0]
    addi sp, sp, 4
    pop  lr
    ret
`)
	finals := drain(t, k, s)
	if len(finals) != 2 {
		t.Fatalf("paths = %d", len(finals))
	}
	for _, f := range finals {
		status, _ := f.RegConcrete(isa.R0)
		ptr, _ := f.RegConcrete(isa.R1)
		ks := kernel.Of(f)
		switch status {
		case kernel.StatusSuccess:
			if ptr == 0 || len(ks.LiveAllocs()) != 1 {
				t.Errorf("success path: ptr=%#x allocs=%d", ptr, len(ks.LiveAllocs()))
			}
		case kernel.StatusResources:
			if ptr != 0 || len(ks.LiveAllocs()) != 0 {
				t.Errorf("failure path: ptr=%#x allocs=%d (allocation not undone)", ptr, len(ks.LiveAllocs()))
			}
		default:
			t.Errorf("status = %#x", status)
		}
	}
}

// TestPcNewInterruptSyncFailureFork: the audio sync object forks a NULL
// alternative (the Ensoniq bug's precondition).
func TestPcNewInterruptSyncFailureFork(t *testing.T) {
	k, s := harness(t, `
.import PcNewInterruptSync
.entry e
.text
e:
    push lr
    addi sp, sp, -4
    mov  r0, sp
    movi r1, 0
    call PcNewInterruptSync
    ldw  r1, [sp+0]
    addi sp, sp, 4
    pop  lr
    ret
`)
	finals := drain(t, k, s)
	if len(finals) != 2 {
		t.Fatalf("paths = %d", len(finals))
	}
	sawNull, sawValid := false, false
	for _, f := range finals {
		ptr, _ := f.RegConcrete(isa.R1)
		if ptr == 0 {
			sawNull = true
		} else {
			sawValid = true
			if !kernel.Of(f).IntrSyncs[ptr] {
				t.Error("valid sync not registered")
			}
		}
	}
	if !sawNull || !sawValid {
		t.Error("missing an outcome")
	}
}

// TestInstallersAreIdempotentEnough: installing only the NDIS set leaves
// WDM APIs un-annotated.
func TestInstallersSeparate(t *testing.T) {
	img, _ := asm.Assemble(".entry e\n.text\ne: ret\n")
	m := vm.NewMachine(img, expr.NewSymbolTable(), solver.New())
	k := kernel.New(m)
	InstallNDIS(k)
	if len(k.Annotations["ExAllocatePoolWithTag"]) != 0 {
		t.Error("NDIS installer touched WDM APIs")
	}
	if len(k.Annotations["NdisReadConfiguration"]) == 0 {
		t.Error("NDIS annotation missing")
	}
	InstallWDM(k)
	if len(k.Annotations["ExAllocatePoolWithTag"]) == 0 {
		t.Error("WDM annotation missing")
	}
}

// TestForkPolicyPrimaryOutcomeForksNothing: under a replay ForkPolicy that
// keeps the primary outcome, an alloc-failure annotation charges the fork
// budget and nothing else — no throwaway clone, so the live state's memory
// overlay depth, the fork count and the state ID sequence are untouched.
// Under a policy that takes the alternative, the live state takes it.
func TestForkPolicyPrimaryOutcomeForksNothing(t *testing.T) {
	const src = `
.import ExAllocatePoolWithTag
.entry e
.text
e:
    push lr
    movi r0, 0
    movi r1, 16
    movi r2, 1
    call ExAllocatePoolWithTag
    pop  lr
    ret
`
	for _, takeAlt := range []bool{false, true} {
		k, s := harness(t, src)
		k.ForkPolicy = func(*vm.State, string) bool { return takeAlt }
		depth := s.Mem.Depth()
		final, forked, err := k.M.Run(s, 1000)
		if err != nil || len(forked) != 0 || final != s || s.Status != vm.StatusExited {
			t.Fatalf("takeAlt=%v: run ended %v with %d forks, err %v", takeAlt, final.Status, len(forked), err)
		}
		if got := kernel.Of(s).AllocFailForks; got != 1 {
			t.Errorf("takeAlt=%v: AllocFailForks = %d, want 1", takeAlt, got)
		}
		if got := s.Mem.Depth(); got != depth {
			t.Errorf("takeAlt=%v: live memory depth %d -> %d", takeAlt, depth, got)
		}
		if got := k.M.Root().Forks; got != 0 {
			t.Errorf("takeAlt=%v: root context Forks = %d, want 0", takeAlt, got)
		}
		if next := k.M.NewRootState().ID; next != s.ID+1 {
			t.Errorf("takeAlt=%v: next state ID %d, want %d (an ID was consumed)", takeAlt, next, s.ID+1)
		}
		ret, _ := s.RegConcrete(isa.R0)
		if takeAlt && ret != 0 {
			t.Errorf("alternative taken but the allocation returned %#x, want NULL", ret)
		}
		if !takeAlt && ret == 0 {
			t.Error("primary outcome kept but the allocation returned NULL")
		}
	}
}
