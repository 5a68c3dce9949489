package kernel

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/vm"
)

// readU32 reads a guest word for the concrete kernel, concretizing lazily
// if the driver stored something symbolic there (§3.2: symbolic values are
// concretized only when concretely running code actually reads them).
func (k *Kernel) readU32(s *vm.State, addr uint32) (uint32, error) {
	v := s.Mem.Read(addr, 4)
	if v.IsConst() {
		return v.ConstVal(), nil
	}
	return k.M.Concretize(s, v, fmt.Sprintf("mem[%#x]", addr))
}

func (k *Kernel) writeU32(s *vm.State, addr, v uint32) {
	s.Mem.Write(addr, 4, expr.Const(v))
}

// registerNdisAPI installs the network driver API (the NDIS analogue).
func registerNdisAPI(k *Kernel) {
	k.Register("NdisMRegisterMiniport", ndisMRegisterMiniport)
	k.Register("NdisOpenConfiguration", ndisOpenConfiguration)
	k.Register("NdisReadConfiguration", ndisReadConfiguration)
	k.Register("NdisCloseConfiguration", ndisCloseConfiguration)
	k.Register("NdisAllocateMemoryWithTag", ndisAllocateMemoryWithTag)
	k.Register("NdisFreeMemory", freeAlloc("NdisFreeMemory", 0))
	k.Register("NdisAllocateSpinLock", initSpinLock)
	k.Register("NdisFreeSpinLock", ndisFreeSpinLock)
	k.Register("NdisAcquireSpinLock", acquireSpinLock(spinNdis))
	k.Register("NdisReleaseSpinLock", releaseSpinLock(spinNdis))
	k.Register("NdisDprAcquireSpinLock", acquireSpinLock(spinDpr))
	k.Register("NdisDprReleaseSpinLock", releaseSpinLock(spinDpr))
	k.Register("NdisMInitializeTimer", ndisMInitializeTimer)
	k.Register("NdisMSetTimer", ndisMSetTimer)
	k.Register("NdisMCancelTimer", ndisMCancelTimer)
	k.Register("NdisMRegisterInterrupt", ndisMRegisterInterrupt)
	k.Register("NdisMDeregisterInterrupt", ndisMDeregisterInterrupt)
	k.Register("NdisMMapIoSpace", ndisMMapIoSpace)
	k.Register("NdisMRegisterIoPortRange", ndisMRegisterIoPortRange)
	k.Register("NdisAllocatePacketPool", allocatePool(packetPool))
	k.Register("NdisFreePacketPool", freePool(packetPool))
	k.Register("NdisAllocatePacket", allocateFromPool(packetPool))
	k.Register("NdisFreePacket", freeToPool(packetPool))
	k.Register("NdisAllocateBufferPool", allocatePool(bufferPool))
	k.Register("NdisFreeBufferPool", freePool(bufferPool))
	k.Register("NdisAllocateBuffer", allocateFromPool(bufferPool))
	k.Register("NdisFreeBuffer", freeToPool(bufferPool))
	k.Register("NdisMAllocateSharedMemory", ndisMAllocateSharedMemory)
	k.Register("NdisMFreeSharedMemory", freeAlloc("NdisMFreeSharedMemory", 3))
	k.Register("NdisReadNetworkAddress", ndisReadNetworkAddress)
	k.Register("NdisStallExecution", nop)
	k.Register("NdisWriteErrorLogEntry", nop)
	k.Register("NdisMSendComplete", nop)
	k.Register("NdisMIndicateReceiveComplete", nop)
	k.Register("NdisZeroMemory", ndisZeroMemory)
	k.Register("NdisMoveMemory", ndisMoveMemory)
	k.Register("NdisGetCurrentSystemTime", ndisGetCurrentSystemTime)
	k.Register("NdisMSleep", ndisMSleep)
}

func nop(k *Kernel, s *vm.State) error {
	k.SetRet(s, StatusSuccess)
	return nil
}

// NdisMRegisterMiniport(charsPtr) reads the driver's entry-point table:
// { Initialize, Send, QueryInformation, SetInformation, Halt, ISR,
//
//	HandleInterrupt }, seven words.
func ndisMRegisterMiniport(k *Kernel, s *vm.State) error {
	var words [7]uint32
	if err := k.registerEntries(s, words[:]); err != nil {
		return err
	}
	Of(s).Miniport = &MiniportChars{
		InitializePC: words[0], SendPC: words[1], QueryInfoPC: words[2],
		SetInfoPC: words[3], HaltPC: words[4], ISRPC: words[5], HandleIntPC: words[6],
	}
	return nil
}

// NdisOpenConfiguration(statusPtr, handlePtr)
func ndisOpenConfiguration(k *Kernel, s *vm.State) error {
	statusPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	handlePtr, err := k.ArgConcrete(s, 1)
	if err != nil {
		return err
	}
	ks := Of(s)
	h := ks.OpenConfig("NdisOpenConfiguration", s.PC)
	k.writeU32(s, statusPtr, StatusSuccess)
	k.writeU32(s, handlePtr, h)
	k.SetRet(s, StatusSuccess)
	return nil
}

// NdisReadConfiguration(statusPtr, paramPtrPtr, handle, namePtr, type)
//
// Returns a kernel-owned parameter block { Type u32, IntegerData u32 }.
// The stock annotation set replaces IntegerData with a symbolic value
// (the paper's flagship annotation example).
func ndisReadConfiguration(k *Kernel, s *vm.State) error {
	statusPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	paramPtrPtr, err := k.ArgConcrete(s, 1)
	if err != nil {
		return err
	}
	handle, err := k.ArgConcrete(s, 2)
	if err != nil {
		return err
	}
	namePtr, err := k.ArgConcrete(s, 3)
	if err != nil {
		return err
	}
	ks := Of(s)
	if _, open := ks.configHandles.get(handle); !open {
		return k.verifierBug(s, BugCheckBadPoolCaller,
			"NdisReadConfiguration on closed or invalid handle %#x", handle)
	}
	name, ok := s.Mem.ReadCString(namePtr, 128)
	if !ok {
		return vm.Faultf("memory", s.PC, "unterminated or symbolic configuration name at %#x", namePtr)
	}
	val, present := ks.registry.get(name)
	if !present {
		k.writeU32(s, statusPtr, StatusFailure)
		k.SetRet(s, StatusFailure)
		return nil
	}
	// Parameter blocks are kernel bookkeeping, not driver-leakable memory.
	block, err := ks.KernelAlloc(8)
	if err != nil {
		return vm.Faultf("engine", s.PC, "%v", err)
	}
	k.writeU32(s, block, ParamInteger)
	k.writeU32(s, block+4, val)
	k.writeU32(s, statusPtr, StatusSuccess)
	k.writeU32(s, paramPtrPtr, block)
	k.SetRet(s, StatusSuccess)
	return nil
}

func ndisCloseConfiguration(k *Kernel, s *vm.State) error {
	handle, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	ks := Of(s)
	if _, open := ks.configHandles.get(handle); !open {
		return k.verifierBug(s, BugCheckBadPoolCaller,
			"NdisCloseConfiguration on invalid handle %#x", handle)
	}
	ks.configHandles.del(ks.key, handle)
	k.SetRet(s, StatusSuccess)
	return nil
}

// NdisAllocateMemoryWithTag(ptrPtr, length, tag) -> status
func ndisAllocateMemoryWithTag(k *Kernel, s *vm.State) error {
	ptrPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	length, err := k.ArgConcrete(s, 1)
	if err != nil {
		return err
	}
	tag, err := k.ArgConcrete(s, 2)
	if err != nil {
		return err
	}
	ks := Of(s)
	addr, aerr := ks.HeapAllocRecord(Alloc{Size: length, PoolTag: tag, Kind: "pool", Seq: s.ICount, PC: s.PC})
	if aerr != nil {
		k.writeU32(s, ptrPtr, 0)
		k.SetRet(s, StatusResources)
		return nil
	}
	k.writeU32(s, ptrPtr, addr)
	k.SetRet(s, StatusSuccess)
	return nil
}

func ndisFreeSpinLock(k *Kernel, s *vm.State) error {
	addr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	ks := Of(s)
	if sp, ok := ks.spinlocks.get(addr); ok && sp.Held {
		return k.verifierBug(s, BugCheckSpinlockNotOwned,
			"NdisFreeSpinLock of held lock %#x", addr)
	}
	ks.spinlocks.del(ks.key, addr)
	k.SetRet(s, StatusSuccess)
	return nil
}

// NdisMInitializeTimer(timerPtr, adapter, funcPC, ctx)
func ndisMInitializeTimer(k *Kernel, s *vm.State) error {
	timerPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	funcPC, err := k.ArgConcrete(s, 2)
	if err != nil {
		return err
	}
	ctx, err := k.ArgConcrete(s, 3)
	if err != nil {
		return err
	}
	ks := Of(s)
	ks.timers.set(ks.key, timerPtr, Timer{Initialized: true, FuncPC: funcPC, Ctx: ctx})
	k.SetRet(s, StatusSuccess)
	return nil
}

// NdisMSetTimer(timerPtr, milliseconds)
func ndisMSetTimer(k *Kernel, s *vm.State) error {
	timerPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	ks := Of(s)
	t, ok := ks.timers.get(timerPtr)
	if !ok || !t.Initialized {
		// The RTL8029 race of Table 2: an interrupt arriving before
		// NdisMInitializeTimer hands the kernel an uninitialized timer.
		return k.verifierBug(s, BugCheckTimerNotInitialized,
			"NdisMSetTimer on uninitialized timer descriptor %#x", timerPtr)
	}
	t.Queued = true
	ks.timers.set(ks.key, timerPtr, t)
	ks.PendingDPCs = append(ks.PendingDPCs, DPC{FuncPC: t.FuncPC, Ctx: t.Ctx, Label: "timer"})
	k.SetRet(s, StatusSuccess)
	return nil
}

func ndisMCancelTimer(k *Kernel, s *vm.State) error {
	timerPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	canceledPtr, err := k.ArgConcrete(s, 1)
	if err != nil {
		return err
	}
	ks := Of(s)
	was := uint32(0)
	if t, ok := ks.timers.get(timerPtr); ok && t.Queued {
		t.Queued = false
		ks.timers.set(ks.key, timerPtr, t)
		was = 1
	}
	if canceledPtr != 0 {
		k.writeU32(s, canceledPtr, was)
	}
	k.SetRet(s, StatusSuccess)
	return nil
}

// NdisMRegisterInterrupt(intrPtr, adapter, vector, level, shared, mode)
func ndisMRegisterInterrupt(k *Kernel, s *vm.State) error {
	ks := Of(s)
	if ks.Miniport == nil || ks.Miniport.ISRPC == 0 {
		return k.verifierBug(s, BugCheckDriverFault,
			"NdisMRegisterInterrupt before miniport registration")
	}
	ks.ISRRegistered = true
	ks.ISRPC = ks.Miniport.ISRPC
	k.SetRet(s, StatusSuccess)
	return nil
}

func ndisMDeregisterInterrupt(k *Kernel, s *vm.State) error {
	Of(s).ISRRegistered = false
	k.SetRet(s, StatusSuccess)
	return nil
}

// NdisMMapIoSpace(vaPtr, adapter, physAddr, length) -> status
func ndisMMapIoSpace(k *Kernel, s *vm.State) error {
	vaPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	k.writeU32(s, vaPtr, isa.MMIOBase)
	k.SetRet(s, StatusSuccess)
	return nil
}

// NdisMRegisterIoPortRange(portVaPtr, adapter, start, count) -> status
func ndisMRegisterIoPortRange(k *Kernel, s *vm.State) error {
	portVaPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	start, err := k.ArgConcrete(s, 2)
	if err != nil {
		return err
	}
	k.writeU32(s, portVaPtr, start)
	k.SetRet(s, StatusSuccess)
	return nil
}

// NdisMAllocateSharedMemory(adapter, length, cached, vaPtr, paPtr)
func ndisMAllocateSharedMemory(k *Kernel, s *vm.State) error {
	length, err := k.ArgConcrete(s, 1)
	if err != nil {
		return err
	}
	vaPtr, err := k.ArgConcrete(s, 3)
	if err != nil {
		return err
	}
	paPtr, err := k.ArgConcrete(s, 4)
	if err != nil {
		return err
	}
	ks := Of(s)
	addr, aerr := ks.HeapAlloc(length, "dma", "shared", s.ICount, s.PC)
	if aerr != nil {
		k.writeU32(s, vaPtr, 0)
		k.writeU32(s, paPtr, 0)
		k.SetRet(s, StatusResources)
		return nil
	}
	k.writeU32(s, vaPtr, addr)
	k.writeU32(s, paPtr, addr) // identity "physical" mapping
	k.SetRet(s, StatusSuccess)
	return nil
}

// NdisReadNetworkAddress(statusPtr, addrPtrPtr, lenPtr, handle)
func ndisReadNetworkAddress(k *Kernel, s *vm.State) error {
	statusPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	addrPtrPtr, err := k.ArgConcrete(s, 1)
	if err != nil {
		return err
	}
	lenPtr, err := k.ArgConcrete(s, 2)
	if err != nil {
		return err
	}
	ks := Of(s)
	block, aerr := ks.KernelAlloc(8)
	if aerr != nil {
		return vm.Faultf("engine", s.PC, "%v", aerr)
	}
	s.Mem.WriteBytes(block, []byte{0x02, 0x11, 0x22, 0x33, 0x44, 0x55, 0, 0})
	k.writeU32(s, statusPtr, StatusSuccess)
	k.writeU32(s, addrPtrPtr, block)
	k.writeU32(s, lenPtr, 6)
	k.SetRet(s, StatusSuccess)
	return nil
}

// NdisZeroMemory(dst, length)
func ndisZeroMemory(k *Kernel, s *vm.State) error {
	dst, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	length, err := k.ArgConcrete(s, 1)
	if err != nil {
		return err
	}
	if length > 1<<20 {
		return k.verifierBug(s, BugCheckDriverFault, "NdisZeroMemory of %d bytes", length)
	}
	for i := uint32(0); i < length; i++ {
		s.Mem.StoreByte(dst+i, expr.Const(0))
	}
	k.SetRet(s, StatusSuccess)
	return nil
}

// NdisMoveMemory(dst, src, length) — the kernel validates both ranges
// against the driver's grants, Driver Verifier style.
func ndisMoveMemory(k *Kernel, s *vm.State) error {
	dst, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	src, err := k.ArgConcrete(s, 1)
	if err != nil {
		return err
	}
	length, err := k.ArgConcrete(s, 2)
	if err != nil {
		return err
	}
	if length > 1<<20 {
		return k.verifierBug(s, BugCheckDriverFault, "NdisMoveMemory of %d bytes", length)
	}
	for i := uint32(0); i < length; i++ {
		s.Mem.StoreByte(dst+i, s.Mem.LoadByte(src+i))
	}
	k.SetRet(s, StatusSuccess)
	return nil
}

func ndisGetCurrentSystemTime(k *Kernel, s *vm.State) error {
	ptr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	k.writeU32(s, ptr, uint32(s.ICount))
	k.SetRet(s, StatusSuccess)
	return nil
}

func ndisMSleep(k *Kernel, s *vm.State) error {
	ks := Of(s)
	if ks.IRQL >= DispatchLevel {
		return k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
			"NdisMSleep called at %s", IrqlName(ks.IRQL))
	}
	k.SetRet(s, StatusSuccess)
	return nil
}
