package kernel

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
)

func TestKeRaiseAndLowerIrql(t *testing.T) {
	k, s := harness(t, `
.import KeRaiseIrql
.import KeLowerIrql
.import KeGetCurrentIrql
.entry e
.text
e:
    push lr
    addi sp, sp, -4
    movi r0, 2             ; DISPATCH_LEVEL
    mov  r1, sp
    call KeRaiseIrql
    call KeGetCurrentIrql
    mov  r4, r0            ; should be 2
    movi r0, 0
    call KeLowerIrql
    call KeGetCurrentIrql
    mov  r5, r0            ; should be 0
    addi sp, sp, 4
    pop  lr
    ret
`)
	finals, faults := drain(t, k, s)
	if len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	if v, _ := finals[0].RegConcrete(isa.R4); v != uint32(DispatchLevel) {
		t.Errorf("raised irql = %d", v)
	}
	if v, _ := finals[0].RegConcrete(isa.R5); v != uint32(PassiveLevel) {
		t.Errorf("lowered irql = %d", v)
	}
}

func TestKeRaiseIrqlDownwardIsBug(t *testing.T) {
	k, s := harness(t, `
.import KeRaiseIrql
.entry e
.text
e:
    push lr
    movi r0, 0
    movi r1, 0
    call KeRaiseIrql
    pop  lr
    ret
`)
	Of(s).IRQL = DispatchLevel
	_, faults := drain(t, k, s)
	if len(faults) != 1 || !strings.Contains(faults[0].Error(), "KeRaiseIrql") {
		t.Fatalf("faults = %v", faults)
	}
}

func TestKeLowerIrqlUpwardIsBug(t *testing.T) {
	k, s := harness(t, `
.import KeLowerIrql
.entry e
.text
e:
    push lr
    movi r0, 5
    call KeLowerIrql
    pop  lr
    ret
`)
	_, faults := drain(t, k, s)
	if len(faults) != 1 || !strings.Contains(faults[0].Error(), "KeLowerIrql") {
		t.Fatalf("faults = %v", faults)
	}
}

func TestKeSpinLockPair(t *testing.T) {
	k, s := harness(t, `
.import KeInitializeSpinLock
.import KeAcquireSpinLock
.import KeReleaseSpinLock
.entry e
.text
e:
    push lr
    addi sp, sp, -4
    movi r0, lock
    call KeInitializeSpinLock
    movi r0, lock
    mov  r1, sp
    call KeAcquireSpinLock
    movi r0, lock
    ldw  r1, [sp+0]        ; restore the recorded old IRQL
    call KeReleaseSpinLock
    addi sp, sp, 4
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
	if ks.IRQL != PassiveLevel || len(ks.HeldSpinlocks()) != 0 {
		t.Errorf("post state: irql=%s held=%v", IrqlName(ks.IRQL), ks.HeldSpinlocks())
	}
}

func TestKeReleaseInDpcLoweringIsBug(t *testing.T) {
	k, s := harness(t, `
.import KeAcquireSpinLock
.import KeReleaseSpinLock
.entry e
.text
e:
    push lr
    addi sp, sp, -4
    movi r0, lock
    mov  r1, sp
    call KeAcquireSpinLock
    movi r0, lock
    movi r1, 0             ; PASSIVE in a DPC: prohibited
    call KeReleaseSpinLock
    addi sp, sp, 4
    pop  lr
    ret
.data
lock: .word 0
`)
	Of(s).IRQL = DispatchLevel
	Of(s).InDpc = true
	_, faults := drain(t, k, s)
	if len(faults) != 1 || !strings.Contains(faults[0].Error(), "DPC") {
		t.Fatalf("faults = %v", faults)
	}
}

func TestAudioRegistrationFlow(t *testing.T) {
	k, s := harness(t, `
.import PcRegisterMiniport
.import PcNewInterruptSync
.import PcRegisterServiceRoutine
.entry e
.text
e:
    push lr
    addi sp, sp, -4
    movi r0, chars
    call PcRegisterMiniport
    mov  r0, sp
    movi r1, 0
    call PcNewInterruptSync
    ldw  r0, [sp+0]
    movi r1, isr
    movi r2, 0
    call PcRegisterServiceRoutine
    addi sp, sp, 4
    pop  lr
    movi r0, 0
    ret
init: ret
play: ret
stop: ret
isr:  ret
halt: ret
.data
chars: .word init, play, stop, isr, halt
`)
	finals, faults := drain(t, k, s)
	if len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	ks := Of(finals[0])
	if ks.Audio == nil || ks.Audio.PlayPC == 0 {
		t.Fatal("audio chars not registered")
	}
	if !ks.ISRRegistered {
		t.Error("service routine not attached")
	}
	// The sync object lives in guest memory and is dereferenceable.
	for sync := range ks.IntrSyncs {
		if _, ok := ks.FindRegion(sync, 4); !ok {
			t.Errorf("sync object %#x not granted", sync)
		}
	}
}

func TestRegisterServiceRoutineOnBadSyncIsBug(t *testing.T) {
	k, s := harness(t, `
.import PcRegisterServiceRoutine
.entry e
.text
e:
    push lr
    movi r0, 0xDEAD
    movi r1, e
    movi r2, 0
    call PcRegisterServiceRoutine
    pop  lr
    ret
`)
	_, faults := drain(t, k, s)
	if len(faults) != 1 || !strings.Contains(faults[0].Error(), "invalid interrupt sync") {
		t.Fatalf("faults = %v", faults)
	}
}

func TestNdisMoveAndZeroMemory(t *testing.T) {
	k, s := harness(t, `
.import NdisMoveMemory
.import NdisZeroMemory
.entry e
.text
e:
    push lr
    movi r0, dstbuf
    movi r1, srcbuf
    movi r2, 8
    call NdisMoveMemory
    movi r4, dstbuf
    ldw  r4, [r4+0]        ; copied word
    movi r0, srcbuf
    movi r1, 8
    call NdisZeroMemory
    movi r5, srcbuf
    ldw  r5, [r5+0]        ; zeroed word
    pop  lr
    ret
.data
srcbuf: .word 0xDEADBEEF, 0x12345678
dstbuf: .word 0, 0
`)
	finals, faults := drain(t, k, s)
	if len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	if v, _ := finals[0].RegConcrete(isa.R4); v != 0xDEADBEEF {
		t.Errorf("copy = %#x", v)
	}
	if v, _ := finals[0].RegConcrete(isa.R5); v != 0 {
		t.Errorf("zero = %#x", v)
	}
}

func TestReadConfigurationMissingKey(t *testing.T) {
	k, s := harness(t, `
.import NdisOpenConfiguration
.import NdisReadConfiguration
.import NdisCloseConfiguration
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
    mov  r4, r0            ; status: failure for a missing key
    ldw  r0, [sp+4]
    call NdisCloseConfiguration
    addi sp, sp, 12
    pop  lr
    mov  r0, r4
    ret
.data
name: .asciz "NoSuchParameter"
`)
	finals, faults := drain(t, k, s)
	if len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	if v, _ := finals[0].RegConcrete(isa.R0); v != StatusFailure {
		t.Errorf("status = %#x, want failure", v)
	}
}

func TestBufferPoolLifecycle(t *testing.T) {
	k, s := harness(t, `
.import NdisAllocateBufferPool
.import NdisAllocateBuffer
.import NdisFreeBuffer
.import NdisFreeBufferPool
.entry e
.text
e:
    push lr
    addi sp, sp, -12
    mov  r0, sp
    addi r1, sp, 4
    movi r2, 4
    call NdisAllocateBufferPool
    mov  r0, sp
    addi r1, sp, 8
    ldw  r2, [sp+4]
    movi r3, stage
    push r12
    movi r12, 64
    stw  [sp+0], r12
    call NdisAllocateBuffer
    pop  r12
    ldw  r0, [sp+8]
    call NdisFreeBuffer
    ldw  r0, [sp+4]
    call NdisFreeBufferPool
    addi sp, sp, 12
    pop  lr
    ret
.data
stage: .space 64
`)
	finals, faults := drain(t, k, s)
	if len(faults) != 0 {
		t.Fatalf("faults: %v", faults)
	}
	ks := Of(finals[0])
	if len(ks.BufferPools) != 0 || len(ks.LiveAllocs()) != 0 {
		t.Errorf("buffer state leaked: %v / %v", ks.BufferPools, ks.LiveAllocs())
	}
}

func TestInvokeSetsUpEntryState(t *testing.T) {
	k, s := harness(t, ".entry e\n.text\ne: ret\n")
	// harness already invoked; verify the conventions.
	if s.EntryName != "DriverEntry" {
		t.Errorf("entry name %q", s.EntryName)
	}
	if lr, _ := s.RegConcrete(isa.LR); lr != vm.ExitAddr {
		t.Errorf("lr = %#x", lr)
	}
	_ = k
}
