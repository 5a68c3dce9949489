package kernel

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/solver"
	"repro/internal/vm"
)

// harness assembles src, builds machine+kernel, returns a ready root state
// positioned at the entry.
func harness(t *testing.T, src string) (*Kernel, *vm.State) {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := vm.NewMachine(img, expr.NewSymbolTable(), solver.New())
	k := New(m)
	s := m.NewRootState()
	ks := NewKState()
	ks.Grant(Region{Lo: isa.ImageBase, Hi: img.LimitVA(), Kind: RegionImage, Writable: true})
	s.Kernel = ks
	k.InvokeSym(s, "DriverEntry", img.Entry)
	return k, s
}

// drain runs all states to completion, returning exited finals and faults.
func drain(t *testing.T, k *Kernel, s *vm.State) (finals []*vm.State, faults []error) {
	t.Helper()
	work := []*vm.State{s}
	for len(work) > 0 {
		st := work[0]
		work = work[1:]
		final, forked, err := k.M.Run(st, 200000)
		work = append(work, forked...)
		if err != nil {
			faults = append(faults, err)
			continue
		}
		if final.Status == vm.StatusExited {
			finals = append(finals, final)
		}
	}
	return finals, faults
}

func TestAllocateAndFreeMemory(t *testing.T) {
	k, s := harness(t, `
.import NdisAllocateMemoryWithTag
.import NdisFreeMemory
.entry e
.text
e:
    push lr
    addi sp, sp, -4      ; local: out pointer
    mov  r0, sp          ; ptrPtr
    movi r1, 128         ; length
    movi r2, 0x1234      ; tag
    call NdisAllocateMemoryWithTag
    mov  r4, r0          ; status
    ldw  r5, [sp+0]      ; allocated pointer
    stw  [r5+0], r4      ; touch the allocation
    mov  r0, r5
    movi r1, 128
    movi r2, 0
    call NdisFreeMemory
    addi sp, sp, 4
    pop  lr
    mov  r0, r4
    ret
`)
	finals, faults := drain(t, k, s)
	if len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	if len(finals) != 1 {
		t.Fatalf("finals = %d", len(finals))
	}
	if v, _ := finals[0].RegConcrete(isa.R0); v != StatusSuccess {
		t.Errorf("status = %#x", v)
	}
	if live := Of(finals[0]).LiveAllocs(); len(live) != 0 {
		t.Errorf("leaked allocations: %v", live)
	}
}

// TestAllocateMemoryKeepsPoolTagWord: NdisAllocateMemoryWithTag records the
// driver's tag word raw, with no kernel-chosen label.
func TestAllocateMemoryKeepsPoolTagWord(t *testing.T) {
	k, s := harness(t, `
.import NdisAllocateMemoryWithTag
.entry e
.text
e:
    push lr
    addi sp, sp, -4
    mov  r0, sp
    movi r1, 32
    movi r2, 0x1234
    call NdisAllocateMemoryWithTag
    addi sp, sp, 4
    pop  lr
    ret
`)
	finals, faults := drain(t, k, s)
	if len(faults) != 0 || len(finals) != 1 {
		t.Fatalf("finals %d, faults %v", len(finals), faults)
	}
	live := Of(finals[0]).LiveAllocs()
	if len(live) != 1 || live[0].PoolTag != 0x1234 || live[0].Tag != "" || live[0].Kind != "pool" {
		t.Fatalf("live allocations = %+v, want one pool block with tag word 0x1234", live)
	}
}

func TestFreeOfBadPointerIsBug(t *testing.T) {
	k, s := harness(t, `
.import NdisFreeMemory
.entry e
.text
e:
    push lr
    movi r0, 0xDEAD0
    call NdisFreeMemory
    pop  lr
    ret
`)
	_, faults := drain(t, k, s)
	if len(faults) != 1 || !strings.Contains(faults[0].Error(), "non-allocated") {
		t.Fatalf("faults = %v", faults)
	}
}

func TestConfigurationOpenReadClose(t *testing.T) {
	k, s := harness(t, `
.import NdisOpenConfiguration
.import NdisReadConfiguration
.import NdisCloseConfiguration
.entry e
.text
e:
    push lr
    addi sp, sp, -12       ; [sp+0]=status [sp+4]=handle [sp+8]=paramPtr
    mov  r0, sp
    addi r1, sp, 4
    call NdisOpenConfiguration
    ; read "Speed"
    mov  r0, sp            ; statusPtr
    addi r1, sp, 8         ; paramPtrPtr
    ldw  r2, [sp+4]        ; handle
    movi r3, name
    push r3                ; overflow arg? no: 4 register args + type on stack
    movi r3, name
    call NdisReadConfiguration
    pop  r12
    ldw  r4, [sp+8]        ; param block
    ldw  r5, [r4+4]        ; IntegerData
    ldw  r0, [sp+4]
    call NdisCloseConfiguration
    addi sp, sp, 12
    pop  lr
    mov  r0, r5
    ret
.data
name: .asciz "Speed"
`)
	Of(s).Registry["Speed"] = 100
	finals, faults := drain(t, k, s)
	if len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	if len(finals) != 1 {
		t.Fatalf("finals = %d", len(finals))
	}
	if v, _ := finals[0].RegConcrete(isa.R0); v != 100 {
		t.Errorf("config value = %d, want 100", v)
	}
	if open := Of(finals[0]).OpenConfigHandles(); len(open) != 0 {
		t.Errorf("config handle leaked: %v", open)
	}
}

func TestSpinLockRaisesIrqlAndRestores(t *testing.T) {
	k, s := harness(t, `
.import NdisAllocateSpinLock
.import NdisAcquireSpinLock
.import NdisReleaseSpinLock
.entry e
.text
e:
    push lr
    movi r4, lock
    mov  r0, r4
    call NdisAllocateSpinLock
    mov  r0, r4
    call NdisAcquireSpinLock
    mov  r0, r4
    call NdisReleaseSpinLock
    pop  lr
    ret
.data
lock: .word 0
`)
	finals, faults := drain(t, k, s)
	if len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	ks := Of(finals[0])
	if ks.IRQL != PassiveLevel {
		t.Errorf("final IRQL = %s", IrqlName(ks.IRQL))
	}
	if held := ks.HeldSpinlocks(); len(held) != 0 {
		t.Errorf("locks still held: %v", held)
	}
}

func TestDoubleAcquireIsDeadlock(t *testing.T) {
	k, s := harness(t, `
.import NdisAcquireSpinLock
.entry e
.text
e:
    push lr
    movi r4, lock
    mov  r0, r4
    call NdisAcquireSpinLock
    mov  r0, r4
    call NdisAcquireSpinLock
    pop  lr
    ret
.data
lock: .word 0
`)
	_, faults := drain(t, k, s)
	if len(faults) != 1 {
		t.Fatalf("faults = %v", faults)
	}
	f := faults[0].(*vm.Fault)
	if f.Class != "deadlock" {
		t.Errorf("class = %s", f.Class)
	}
}

func TestReleaseNotHeldIsBug(t *testing.T) {
	k, s := harness(t, `
.import NdisReleaseSpinLock
.entry e
.text
e:
    push lr
    movi r0, lock
    call NdisReleaseSpinLock
    pop  lr
    ret
.data
lock: .word 0
`)
	_, faults := drain(t, k, s)
	if len(faults) != 1 || !strings.Contains(faults[0].Error(), "not held") {
		t.Fatalf("faults = %v", faults)
	}
}

func TestDprReleaseOfNonDprAcquireIsBug(t *testing.T) {
	k, s := harness(t, `
.import NdisAcquireSpinLock
.import NdisDprReleaseSpinLock
.entry e
.text
e:
    push lr
    movi r4, lock
    mov  r0, r4
    call NdisAcquireSpinLock
    mov  r0, r4
    call NdisDprReleaseSpinLock
    pop  lr
    ret
.data
lock: .word 0
`)
	_, faults := drain(t, k, s)
	if len(faults) != 1 || !strings.Contains(faults[0].Error(), "NdisDprReleaseSpinLock") {
		t.Fatalf("faults = %v", faults)
	}
}

func TestNonDprReleaseOfDprAcquireIsBug(t *testing.T) {
	// This is the exact Intel Pro/100 bug of Table 2.
	k, s := harness(t, `
.import NdisDprAcquireSpinLock
.import NdisReleaseSpinLock
.entry e
.text
e:
    push lr
    movi r4, lock
    mov  r0, r4
    call NdisDprAcquireSpinLock
    mov  r0, r4
    call NdisReleaseSpinLock
    pop  lr
    ret
.data
lock: .word 0
`)
	// DPC context: already at DISPATCH_LEVEL.
	Of(s).IRQL = DispatchLevel
	Of(s).InDpc = true
	_, faults := drain(t, k, s)
	if len(faults) != 1 || !strings.Contains(faults[0].Error(), "IRQL corruption") {
		t.Fatalf("faults = %v", faults)
	}
}

func TestTimerBeforeInitIsBug(t *testing.T) {
	k, s := harness(t, `
.import NdisMSetTimer
.entry e
.text
e:
    push lr
    movi r0, timer
    movi r1, 100
    call NdisMSetTimer
    pop  lr
    ret
.data
timer: .space 16
`)
	_, faults := drain(t, k, s)
	if len(faults) != 1 || !strings.Contains(faults[0].Error(), "uninitialized timer") {
		t.Fatalf("faults = %v", faults)
	}
}

func TestTimerInitThenSetQueuesDPC(t *testing.T) {
	k, s := harness(t, `
.import NdisMInitializeTimer
.import NdisMSetTimer
.entry e
.text
e:
    push lr
    movi r0, timer
    movi r1, 0
    movi r2, timerfunc
    movi r3, 0
    call NdisMInitializeTimer
    movi r0, timer
    movi r1, 50
    call NdisMSetTimer
    pop  lr
    ret
timerfunc:
    ret
.data
timer: .space 16
`)
	finals, faults := drain(t, k, s)
	if len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	ks := Of(finals[0])
	if len(ks.PendingDPCs) != 1 || ks.PendingDPCs[0].Label != "timer" {
		t.Errorf("pending DPCs = %v", ks.PendingDPCs)
	}
}

func TestMiniportRegistrationAndInterrupt(t *testing.T) {
	k, s := harness(t, `
.import NdisMRegisterMiniport
.import NdisMRegisterInterrupt
.entry e
.text
e:
    push lr
    movi r0, chars
    call NdisMRegisterMiniport
    movi r0, intr
    call NdisMRegisterInterrupt
    pop  lr
    ret
init: ret
send: ret
qry:  ret
set:  ret
halt: ret
isr:  ret
hint: ret
.data
chars: .word init, send, qry, set, halt, isr, hint
intr:  .space 16
`)
	finals, faults := drain(t, k, s)
	if len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	ks := Of(finals[0])
	if ks.Miniport == nil {
		t.Fatal("miniport not registered")
	}
	if !ks.ISRRegistered || ks.ISRPC != ks.Miniport.ISRPC {
		t.Errorf("ISR registration: %+v", ks)
	}
	if ks.Miniport.InitializePC == 0 || ks.Miniport.HaltPC == 0 {
		t.Errorf("chars = %+v", ks.Miniport)
	}
}

func TestInterruptInjectionRunsISRAtDeviceLevel(t *testing.T) {
	k, s := harness(t, `
.import NdisMRegisterMiniport
.import NdisMRegisterInterrupt
.import KeGetCurrentIrql
.entry e
.text
e:
    push lr
    movi r0, chars
    call NdisMRegisterMiniport
    movi r0, intr
    call NdisMRegisterInterrupt
    pop  lr
    movi r0, 0
    ret
isr:
    push lr
    call KeGetCurrentIrql
    movi r1, irqlbox
    stw  [r1+0], r0
    pop  lr
    ret
init: ret
.data
chars: .word init, init, init, init, init, isr, init
irqlbox: .word 0
intr:  .space 16
`)
	finals, faults := drain(t, k, s)
	if len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	f := finals[0]
	// Inject an interrupt now and run the ISR.
	if !k.InjectInterrupt(f) {
		t.Fatal("interrupt not injectable after registration")
	}
	f.Status = vm.StatusRunning
	// ISR returns to IntrRetAddr, which restores the pre-interrupt context;
	// PC was ExitAddr... the state then exits again.
	finals2, faults2 := drain(t, k, f)
	if len(faults2) != 0 {
		t.Fatalf("ISR faults: %v", faults2)
	}
	if len(finals2) != 1 {
		t.Fatalf("finals after ISR = %d", len(finals2))
	}
	irqlSeen := finals2[0].Mem.Read(imageSym(t, k, "irqlbox"), 4)
	if !irqlSeen.IsConst() || irqlSeen.ConstVal() != uint32(DeviceLevel) {
		t.Errorf("ISR saw IRQL %v, want DEVICE_LEVEL", irqlSeen)
	}
	if Of(finals2[0]).IRQL != PassiveLevel {
		t.Errorf("IRQL after ISR = %s", IrqlName(Of(finals2[0]).IRQL))
	}
}

// imageSym returns the address of a known data label in the interrupt test
// image: chars occupies 7 words (28 bytes) at the data base, irqlbox is the
// word immediately after.
func imageSym(t *testing.T, k *Kernel, name string) uint32 {
	t.Helper()
	switch name {
	case "irqlbox":
		return k.M.Img.DataBase() + 28
	}
	t.Fatalf("unknown symbol %q", name)
	return 0
}

func TestBugCheckCrashesPath(t *testing.T) {
	k, s := harness(t, `
.import KeBugCheckEx
.entry e
.text
e:
    push lr
    movi r0, 0xE2
    call KeBugCheckEx
    pop  lr
    ret
`)
	_, faults := drain(t, k, s)
	if len(faults) != 1 {
		t.Fatalf("faults = %v", faults)
	}
	f := faults[0].(*vm.Fault)
	if f.Class != "crash" || !strings.Contains(f.Msg, "0x000000e2") {
		t.Errorf("fault = %v", f)
	}
}

func TestExAllocateAndFreePool(t *testing.T) {
	k, s := harness(t, `
.import ExAllocatePoolWithTag
.import ExFreePoolWithTag
.entry e
.text
e:
    push lr
    movi r0, 0          ; NonPagedPool
    movi r1, 256
    movi r2, 0x706F6F6C
    call ExAllocatePoolWithTag
    mov  r4, r0
    stw  [r4+0], r4     ; touch
    mov  r0, r4
    movi r1, 0x706F6F6C
    call ExFreePoolWithTag
    pop  lr
    ret
`)
	finals, faults := drain(t, k, s)
	if len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	if len(Of(finals[0]).LiveAllocs()) != 0 {
		t.Error("pool allocation leaked")
	}
}

func TestPagedPoolAtDispatchIsBug(t *testing.T) {
	k, s := harness(t, `
.import ExAllocatePoolWithTag
.entry e
.text
e:
    push lr
    movi r0, 1          ; PagedPool
    movi r1, 64
    movi r2, 0
    call ExAllocatePoolWithTag
    pop  lr
    ret
`)
	Of(s).IRQL = DispatchLevel
	_, faults := drain(t, k, s)
	if len(faults) != 1 || !strings.Contains(faults[0].Error(), "paged pool") {
		t.Fatalf("faults = %v", faults)
	}
}

func TestPacketPoolLifecycle(t *testing.T) {
	k, s := harness(t, `
.import NdisAllocatePacketPool
.import NdisAllocatePacket
.import NdisFreePacket
.import NdisFreePacketPool
.entry e
.text
e:
    push lr
    addi sp, sp, -12     ; [0]=status [4]=pool [8]=pkt
    mov  r0, sp
    addi r1, sp, 4
    movi r2, 16
    movi r3, 0
    call NdisAllocatePacketPool
    mov  r0, sp
    addi r1, sp, 8
    ldw  r2, [sp+4]
    call NdisAllocatePacket
    ldw  r0, [sp+8]
    call NdisFreePacket
    ldw  r0, [sp+4]
    call NdisFreePacketPool
    addi sp, sp, 12
    pop  lr
    ret
`)
	finals, faults := drain(t, k, s)
	if len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	ks := Of(finals[0])
	if len(ks.PacketPools) != 0 || ks.LivePackets() != 0 {
		t.Errorf("pool state leaked: %+v", ks.PacketPools)
	}
}

func TestFreePoolWithOutstandingPacketsIsBug(t *testing.T) {
	k, s := harness(t, `
.import NdisAllocatePacketPool
.import NdisAllocatePacket
.import NdisFreePacketPool
.entry e
.text
e:
    push lr
    addi sp, sp, -12
    mov  r0, sp
    addi r1, sp, 4
    movi r2, 16
    movi r3, 0
    call NdisAllocatePacketPool
    mov  r0, sp
    addi r1, sp, 8
    ldw  r2, [sp+4]
    call NdisAllocatePacket
    ldw  r0, [sp+4]
    call NdisFreePacketPool
    addi sp, sp, 12
    pop  lr
    ret
`)
	_, faults := drain(t, k, s)
	if len(faults) != 1 || !strings.Contains(faults[0].Error(), "outstanding") {
		t.Fatalf("faults = %v", faults)
	}
}

func TestKStateForkIsolation(t *testing.T) {
	ks := NewKState()
	ks.Registry["X"] = 1
	a, _ := ks.HeapAlloc(64, "t", "pool", 0, 0)
	child := ks.Fork().(*KState)
	child.Registry["X"] = 2
	child.HeapFree(a)
	lockAt(child, 0x100).Held = true
	if ks.Registry["X"] != 1 {
		t.Error("registry leaked across fork")
	}
	if len(ks.Allocs) != 1 {
		t.Error("alloc table leaked across fork")
	}
	if sp, ok := ks.Spinlocks[0x100]; ok && sp.Held {
		t.Error("spinlock leaked across fork")
	}
}

func TestAnnotationForksAllocFailure(t *testing.T) {
	k, s := harness(t, `
.import ExAllocatePoolWithTag
.entry e
.text
e:
    push lr
    movi r0, 0
    movi r1, 64
    movi r2, 0
    call ExAllocatePoolWithTag
    pop  lr
    ret
`)
	// Annotation: also try the NULL return (concrete-to-symbolic hint).
	k.Annotate(Annotation{
		API: "ExAllocatePoolWithTag",
		OnReturn: func(ctx *AnnotCtx) {
			if ctx.Ret().IsConst() && ctx.Ret().ConstVal() != 0 {
				alt := ctx.Fork()
				Of(alt).HeapFree(ctx.Ret().ConstVal())
				alt.SetReg(isa.R0, expr.Const(0))
			}
		},
	})
	finals, faults := drain(t, k, s)
	if len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	if len(finals) != 2 {
		t.Fatalf("finals = %d, want 2 (success + failure)", len(finals))
	}
	vals := map[bool]bool{}
	for _, f := range finals {
		v, _ := f.RegConcrete(isa.R0)
		vals[v == 0] = true
	}
	if !vals[true] || !vals[false] {
		t.Error("missing success or failure outcome")
	}
}

func TestAnnotationDiscardState(t *testing.T) {
	k, s := harness(t, `
.import NdisStallExecution
.entry e
.text
e:
    push lr
    call NdisStallExecution
    pop  lr
    ret
`)
	k.Annotate(Annotation{
		API:    "NdisStallExecution",
		OnCall: func(ctx *AnnotCtx) { ctx.Discard() },
	})
	finals, faults := drain(t, k, s)
	if len(faults) != 0 || len(finals) != 0 {
		t.Fatalf("finals = %d, faults = %v (path should be discarded)", len(finals), faults)
	}
}

func TestAnnotationSymbolicReturn(t *testing.T) {
	k, s := harness(t, `
.import KeGetCurrentIrql
.entry e
.text
e:
    push lr
    call KeGetCurrentIrql
    pop  lr
    movi r2, 5
    bltu r0, r2, low
    movi r1, 1
    ret
low:
    movi r1, 0
    ret
`)
	k.Annotate(Annotation{
		API: "KeGetCurrentIrql",
		OnReturn: func(ctx *AnnotCtx) {
			ctx.SetRet(ctx.NewSymbol("irql", expr.OriginAPIReturn))
		},
	})
	finals, faults := drain(t, k, s)
	if len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	if len(finals) != 2 {
		t.Fatalf("finals = %d, want 2 (symbolic return must fork the branch)", len(finals))
	}
}

func TestUnimplementedImportFaults(t *testing.T) {
	k, s := harness(t, `
.import TotallyMadeUpAPI
.entry e
.text
e:
    push lr
    call TotallyMadeUpAPI
    pop  lr
    ret
`)
	_, faults := drain(t, k, s)
	if len(faults) != 1 || !strings.Contains(faults[0].Error(), "unimplemented kernel API") {
		t.Fatalf("faults = %v", faults)
	}
}

func TestIrqlNames(t *testing.T) {
	if IrqlName(PassiveLevel) != "PASSIVE_LEVEL" || IrqlName(DispatchLevel) != "DISPATCH_LEVEL" {
		t.Error("irql naming broken")
	}
}

func TestRegionKindStrings(t *testing.T) {
	for rk := RegionImage; rk <= RegionParam; rk++ {
		if rk.String() == "region?" {
			t.Errorf("kind %d unnamed", rk)
		}
	}
}
