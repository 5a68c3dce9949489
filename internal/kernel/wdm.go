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
	k.Register("ExFreePoolWithTag", freeAlloc("ExFreePoolWithTag", 0))
	k.Register("KeInitializeSpinLock", initSpinLock)
	k.Register("KeAcquireSpinLock", acquireSpinLock(spinKe))
	k.Register("KeReleaseSpinLock", releaseSpinLock(spinKe))
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
func exAllocatePoolWithTag(k *Kernel, s *vm.State) error {
	poolType, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	size, err := k.ArgConcrete(s, 1)
	if err != nil {
		return err
	}
	ks := Of(s)
	if poolType == PagedPool && ks.IRQL >= DispatchLevel {
		return k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
			"paged pool allocation at %s", IrqlName(ks.IRQL))
	}
	addr, aerr := ks.HeapAlloc(size, "expool", "pool", s.ICount, s.PC)
	if aerr != nil {
		k.SetRet(s, 0)
		return nil
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
	return nil
}

func keGetCurrentIrql(k *Kernel, s *vm.State) error {
	k.SetRet(s, uint32(Of(s).IRQL))
	return nil
}

// KeRaiseIrql(newIrql, oldIrqlPtr)
func keRaiseIrql(k *Kernel, s *vm.State) error {
	newIrql, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	oldPtr, err := k.ArgConcrete(s, 1)
	if err != nil {
		return err
	}
	ks := Of(s)
	if uint8(newIrql) < ks.IRQL {
		return k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
			"KeRaiseIrql to %s below current %s", IrqlName(uint8(newIrql)), IrqlName(ks.IRQL))
	}
	if oldPtr != 0 {
		k.writeU32(s, oldPtr, uint32(ks.IRQL))
	}
	ks.IRQL = uint8(newIrql)
	k.SetRet(s, StatusSuccess)
	return nil
}

// KeLowerIrql(newIrql)
func keLowerIrql(k *Kernel, s *vm.State) error {
	newIrql, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	ks := Of(s)
	if uint8(newIrql) > ks.IRQL {
		return k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
			"KeLowerIrql to %s above current %s", IrqlName(uint8(newIrql)), IrqlName(ks.IRQL))
	}
	ks.IRQL = uint8(newIrql)
	k.SetRet(s, StatusSuccess)
	return nil
}

// KeBugCheckEx(code, p1, p2, p3)
func keBugCheckEx(k *Kernel, s *vm.State) error {
	code, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	return k.BugCheck(s, code, "driver-initiated bug check")
}

// PcRegisterMiniport(charsPtr) reads { Initialize, Play, Stop, ISR, Halt }.
func pcRegisterMiniport(k *Kernel, s *vm.State) error {
	var words [5]uint32
	if err := k.registerEntries(s, words[:]); err != nil {
		return err
	}
	Of(s).Audio = &AudioChars{
		InitializePC: words[0], PlayPC: words[1], StopPC: words[2],
		ISRPC: words[3], HaltPC: words[4],
	}
	return nil
}

// PcNewInterruptSync(syncPtrPtr, adapter) -> status. The stock annotation
// forks the failure alternative (status != success, *syncPtrPtr == NULL) —
// the Ensoniq AudioPCI crash of Table 2 lives on that path.
func pcNewInterruptSync(k *Kernel, s *vm.State) error {
	syncPtrPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	ks := Of(s)
	// The sync object lives in guest memory so the driver can embed and
	// dereference it (and so a NULL alternative dereferences the null
	// page, as the Ensoniq AudioPCI bug of Table 2 does).
	addr, aerr := ks.KernelAlloc(16) // kernel-owned object, not driver-leakable
	if aerr != nil {
		k.writeU32(s, syncPtrPtr, 0)
		k.SetRet(s, StatusFailure)
		return nil
	}
	ks.intrSyncs.set(ks.key, addr, true)
	k.writeU32(s, syncPtrPtr, addr)
	k.SetRet(s, StatusSuccess)
	return nil
}

// StorRegisterMiniport(charsPtr) reads the storage miniport's entry table
// { Initialize, Read, Write, CancelIo, Pnp, Power, ISR, Halt } — the
// storage analogue of NdisMRegisterMiniport, including the PnP/power
// dispatch handlers the scenario-graph workload exercises.
func storRegisterMiniport(k *Kernel, s *vm.State) error {
	var words [8]uint32
	if err := k.registerEntries(s, words[:]); err != nil {
		return err
	}
	Of(s).Storage = &StorageChars{
		InitializePC: words[0], ReadPC: words[1], WritePC: words[2],
		CancelPC: words[3], PnpPC: words[4], PowerPC: words[5],
		ISRPC: words[6], HaltPC: words[7],
	}
	return nil
}

// IoConnectInterrupt(isrPC, ctx) attaches the ISR to the device interrupt:
// from here on symbolic interrupts may be injected.
func ioConnectInterrupt(k *Kernel, s *vm.State) error {
	isrPC, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	ks := Of(s)
	ks.ISRRegistered = true
	ks.ISRPC = isrPC
	k.SetRet(s, StatusSuccess)
	return nil
}

// KeInitializeDpc(dpcPtr, funcPC, ctx) initializes a driver-embedded KDPC
// object.
func keInitializeDpc(k *Kernel, s *vm.State) error {
	ptr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	funcPC, err := k.ArgConcrete(s, 1)
	if err != nil {
		return err
	}
	ctx, err := k.ArgConcrete(s, 2)
	if err != nil {
		return err
	}
	ks := Of(s)
	ks.dpcs.set(ks.key, ptr, DpcObj{Inited: true, FuncPC: funcPC, Ctx: ctx})
	k.SetRet(s, StatusSuccess)
	return nil
}

// KeInsertQueueDpc(dpcPtr) -> TRUE if newly queued, FALSE if already
// queued. Queuing an uninitialized DPC is a verifier bug (the KDPC-flavour
// of BugCheckTimerNotInitialized).
func keInsertQueueDpc(k *Kernel, s *vm.State) error {
	ptr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	ks := Of(s)
	o, ok := ks.dpcs.get(ptr)
	if !ok || !o.Inited {
		return k.verifierBug(s, BugCheckTimerNotInitialized,
			"KeInsertQueueDpc of uninitialized DPC object %#x", ptr)
	}
	if o.Queued {
		k.SetRet(s, 0)
		return nil
	}
	o.Queued = true
	ks.dpcs.set(ks.key, ptr, o)
	ks.PendingDPCs = append(ks.PendingDPCs, DPC{FuncPC: o.FuncPC, Ctx: o.Ctx, Label: "kdpc", Obj: ptr})
	k.SetRet(s, 1)
	return nil
}

// PoSetPowerState(state) records the device power state the driver
// reported (PowerDeviceD0/D3); the workload's Suspend/Resume nodes read it
// back for edge decisions.
func poSetPowerState(k *Kernel, s *vm.State) error {
	state, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	ks := Of(s)
	old := ks.PowerState
	ks.PowerState = state
	k.SetRet(s, old)
	return nil
}

// MmMapIoSpace(physAddr, length) -> virtual base of the device's register
// window (the machine routes loads/stores there to the device hooks).
func mmMapIoSpace(k *Kernel, s *vm.State) error {
	if _, err := k.ArgConcrete(s, 0); err != nil {
		return err
	}
	k.SetRet(s, isa.MMIOBase)
	return nil
}

// PcRegisterServiceRoutine(sync, isrPC, ctx) attaches the ISR to the
// interrupt: from here on symbolic interrupts may be injected.
func pcRegisterServiceRoutine(k *Kernel, s *vm.State) error {
	sync, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	isrPC, err := k.ArgConcrete(s, 1)
	if err != nil {
		return err
	}
	ks := Of(s)
	if !ks.IntrSync(sync) {
		return k.verifierBug(s, BugCheckDriverFault,
			"PcRegisterServiceRoutine on invalid interrupt sync %#x", sync)
	}
	ks.ISRRegistered = true
	ks.ISRPC = isrPC
	k.SetRet(s, StatusSuccess)
	return nil
}
