package kernel

import (
	"repro/internal/isa"
	"repro/internal/vm"
)

// registerWdmAPI installs the WDM/PortCls-flavoured API used by the sound
// card drivers (the paper's Ensoniq AudioPCI and Intel AC97 corpus) plus the
// Ex/Ke primitives shared by all driver classes.
func registerWdmAPI(k *Kernel) {
	k.Register("ExAllocatePoolWithTag", exAllocatePoolWithTag)
	k.Register("ExFreePoolWithTag", exFreePoolWithTag)
	k.Register("KeInitializeSpinLock", keInitializeSpinLock)
	k.Register("KeAcquireSpinLock", keAcquireSpinLock)
	k.Register("KeReleaseSpinLock", keReleaseSpinLock)
	k.Register("KeGetCurrentIrql", keGetCurrentIrql)
	k.Register("KeRaiseIrql", keRaiseIrql)
	k.Register("KeLowerIrql", keLowerIrql)
	k.Register("KeBugCheckEx", keBugCheckEx)
	k.Register("KeStallExecutionProcessor", nop)
	k.Register("PcRegisterMiniport", pcRegisterMiniport)
	k.Register("PcNewInterruptSync", pcNewInterruptSync)
	k.Register("PcRegisterServiceRoutine", pcRegisterServiceRoutine)
	k.Register("IoWriteErrorLogEntry", nop)
	k.Register("StorRegisterMiniport", storRegisterMiniport)
	k.Register("IoConnectInterrupt", ioConnectInterrupt)
	k.Register("KeInitializeDpc", keInitializeDpc)
	k.Register("KeInsertQueueDpc", keInsertQueueDpc)
	k.Register("PoSetPowerState", poSetPowerState)
	k.Register("MmMapIoSpace", mmMapIoSpace)
}

// PoolType argument values for ExAllocatePoolWithTag.
const (
	NonPagedPool uint32 = 0
	PagedPool    uint32 = 1
)

// ExAllocatePoolWithTag(poolType, size, tag) -> ptr (NULL on failure)
func exAllocatePoolWithTag(k *Kernel, s *vm.State) ([]*vm.State, error) {
	poolType, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	size, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	if poolType == PagedPool && ks.IRQL >= DispatchLevel {
		return nil, k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
			"paged pool allocation at %s", IrqlName(ks.IRQL))
	}
	addr, aerr := ks.HeapAlloc(size, "expool", "pool", s.ICount, s.PC)
	if aerr != nil {
		k.SetRet(s, 0)
		return nil, nil
	}
	if poolType == PagedPool {
		// Mark the grant pageable: touching it at elevated IRQL is a bug
		// the access checker catches.
		for i := range ks.Regions {
			if ks.Regions[i].Lo == addr {
				ks.Regions[i].Pageable = true
			}
		}
	}
	k.SetRet(s, addr)
	return nil, nil
}

// ExFreePoolWithTag(ptr, tag)
func exFreePoolWithTag(k *Kernel, s *vm.State) ([]*vm.State, error) {
	ptr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	if !Of(s).HeapFree(ptr) {
		return nil, k.verifierBug(s, BugCheckBadPoolCaller,
			"ExFreePoolWithTag of non-allocated pointer %#x", ptr)
	}
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func keInitializeSpinLock(k *Kernel, s *vm.State) ([]*vm.State, error) {
	addr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	sp, _ := ks.spinlocks.get(addr)
	sp.Inited = true
	ks.SetSpinlock(addr, sp)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// KeAcquireSpinLock(lockPtr, oldIrqlPtr)
func keAcquireSpinLock(k *Kernel, s *vm.State) ([]*vm.State, error) {
	addr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	oldIrqlPtr, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	sp, _ := ks.spinlocks.get(addr)
	if sp.Held {
		return nil, vm.Faultf("deadlock", s.PC,
			"KeAcquireSpinLock self-deadlock on lock %#x", addr)
	}
	sp.Held = true
	sp.DprOwned = false
	sp.OldIrql = ks.IRQL
	ks.SetSpinlock(addr, sp)
	if oldIrqlPtr != 0 {
		k.writeU32(s, oldIrqlPtr, uint32(ks.IRQL))
	}
	ks.IRQL = DispatchLevel
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// KeReleaseSpinLock(lockPtr, newIrql)
func keReleaseSpinLock(k *Kernel, s *vm.State) ([]*vm.State, error) {
	addr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	newIrql, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	sp, ok := ks.spinlocks.get(addr)
	if !ok || !sp.Held {
		return nil, k.verifierBug(s, BugCheckSpinlockNotOwned,
			"KeReleaseSpinLock of lock %#x that is not held", addr)
	}
	sp.Held = false
	ks.SetSpinlock(addr, sp)
	ks.IRQL = uint8(newIrql)
	if ks.InDpc && ks.IRQL < DispatchLevel {
		// The Intel Pro/100 bug class: lowering IRQL below DISPATCH inside
		// a DPC corrupts the dispatcher (kernel hang or panic).
		return nil, k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
			"KeReleaseSpinLock in DPC lowered IRQL to %s", IrqlName(ks.IRQL))
	}
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func keGetCurrentIrql(k *Kernel, s *vm.State) ([]*vm.State, error) {
	k.SetRet(s, uint32(Of(s).IRQL))
	return nil, nil
}

// KeRaiseIrql(newIrql, oldIrqlPtr)
func keRaiseIrql(k *Kernel, s *vm.State) ([]*vm.State, error) {
	newIrql, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	oldPtr, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	if uint8(newIrql) < ks.IRQL {
		return nil, k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
			"KeRaiseIrql to %s below current %s", IrqlName(uint8(newIrql)), IrqlName(ks.IRQL))
	}
	if oldPtr != 0 {
		k.writeU32(s, oldPtr, uint32(ks.IRQL))
	}
	ks.IRQL = uint8(newIrql)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// KeLowerIrql(newIrql)
func keLowerIrql(k *Kernel, s *vm.State) ([]*vm.State, error) {
	newIrql, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	if uint8(newIrql) > ks.IRQL {
		return nil, k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
			"KeLowerIrql to %s above current %s", IrqlName(uint8(newIrql)), IrqlName(ks.IRQL))
	}
	ks.IRQL = uint8(newIrql)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// KeBugCheckEx(code, p1, p2, p3)
func keBugCheckEx(k *Kernel, s *vm.State) ([]*vm.State, error) {
	code, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	return nil, k.BugCheck(s, code, "driver-initiated bug check")
}

// PcRegisterMiniport(charsPtr) reads { Initialize, Play, Stop, ISR, Halt }.
func pcRegisterMiniport(k *Kernel, s *vm.State) ([]*vm.State, error) {
	ptr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	var words [5]uint32
	for i := range words {
		words[i], err = k.readU32(s, ptr+uint32(i*4))
		if err != nil {
			return nil, err
		}
	}
	Of(s).Audio = &AudioChars{
		InitializePC: words[0], PlayPC: words[1], StopPC: words[2],
		ISRPC: words[3], HaltPC: words[4],
	}
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// PcNewInterruptSync(syncPtrPtr, adapter) -> status. The stock annotation
// forks the failure alternative (status != success, *syncPtrPtr == NULL) —
// the Ensoniq AudioPCI crash of Table 2 lives on that path.
func pcNewInterruptSync(k *Kernel, s *vm.State) ([]*vm.State, error) {
	syncPtrPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	// The sync object lives in guest memory so the driver can embed and
	// dereference it (and so a NULL alternative dereferences the null
	// page, as the Ensoniq AudioPCI bug of Table 2 does).
	addr, aerr := ks.KernelAlloc(16) // kernel-owned object, not driver-leakable
	if aerr != nil {
		k.writeU32(s, syncPtrPtr, 0)
		k.SetRet(s, StatusFailure)
		return nil, nil
	}
	ks.intrSyncs.set(ks.key, addr, true)
	k.writeU32(s, syncPtrPtr, addr)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// StorRegisterMiniport(charsPtr) reads the storage miniport's entry table
// { Initialize, Read, Write, CancelIo, Pnp, Power, ISR, Halt } — the
// storage analogue of NdisMRegisterMiniport, including the PnP/power
// dispatch handlers the scenario-graph workload exercises.
func storRegisterMiniport(k *Kernel, s *vm.State) ([]*vm.State, error) {
	ptr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	var words [8]uint32
	for i := range words {
		words[i], err = k.readU32(s, ptr+uint32(i*4))
		if err != nil {
			return nil, err
		}
	}
	Of(s).Storage = &StorageChars{
		InitializePC: words[0], ReadPC: words[1], WritePC: words[2],
		CancelPC: words[3], PnpPC: words[4], PowerPC: words[5],
		ISRPC: words[6], HaltPC: words[7],
	}
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// IoConnectInterrupt(isrPC, ctx) attaches the ISR to the device interrupt:
// from here on symbolic interrupts may be injected.
func ioConnectInterrupt(k *Kernel, s *vm.State) ([]*vm.State, error) {
	isrPC, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	ks.ISRRegistered = true
	ks.ISRPC = isrPC
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// KeInitializeDpc(dpcPtr, funcPC, ctx) initializes a driver-embedded KDPC
// object.
func keInitializeDpc(k *Kernel, s *vm.State) ([]*vm.State, error) {
	ptr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	funcPC, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	ctx, err := k.ArgConcrete(s, 2)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	ks.dpcs.set(ks.key, ptr, DpcObj{Inited: true, FuncPC: funcPC, Ctx: ctx})
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// KeInsertQueueDpc(dpcPtr) -> TRUE if newly queued, FALSE if already
// queued. Queuing an uninitialized DPC is a verifier bug (the KDPC-flavour
// of BugCheckTimerNotInitialized).
func keInsertQueueDpc(k *Kernel, s *vm.State) ([]*vm.State, error) {
	ptr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	o, ok := ks.dpcs.get(ptr)
	if !ok || !o.Inited {
		return nil, k.verifierBug(s, BugCheckTimerNotInitialized,
			"KeInsertQueueDpc of uninitialized DPC object %#x", ptr)
	}
	if o.Queued {
		k.SetRet(s, 0)
		return nil, nil
	}
	o.Queued = true
	ks.dpcs.set(ks.key, ptr, o)
	ks.PendingDPCs = append(ks.PendingDPCs, DPC{FuncPC: o.FuncPC, Ctx: o.Ctx, Label: "kdpc", Obj: ptr})
	k.SetRet(s, 1)
	return nil, nil
}

// PoSetPowerState(state) records the device power state the driver
// reported (PowerDeviceD0/D3); the workload's Suspend/Resume nodes read it
// back for edge decisions.
func poSetPowerState(k *Kernel, s *vm.State) ([]*vm.State, error) {
	state, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	old := ks.PowerState
	ks.PowerState = state
	k.SetRet(s, old)
	return nil, nil
}

// MmMapIoSpace(physAddr, length) -> virtual base of the device's register
// window (the machine routes loads/stores there to the device hooks).
func mmMapIoSpace(k *Kernel, s *vm.State) ([]*vm.State, error) {
	if _, err := k.ArgConcrete(s, 0); err != nil {
		return nil, err
	}
	k.SetRet(s, isa.MMIOBase)
	return nil, nil
}

// PcRegisterServiceRoutine(sync, isrPC, ctx) attaches the ISR to the
// interrupt: from here on symbolic interrupts may be injected.
func pcRegisterServiceRoutine(k *Kernel, s *vm.State) ([]*vm.State, error) {
	sync, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	isrPC, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	if !ks.IntrSync(sync) {
		return nil, k.verifierBug(s, BugCheckDriverFault,
			"PcRegisterServiceRoutine on invalid interrupt sync %#x", sync)
	}
	ks.ISRRegistered = true
	ks.ISRPC = isrPC
	k.SetRet(s, StatusSuccess)
	return nil, nil
}
