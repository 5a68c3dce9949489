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
	k.Register("NdisFreeMemory", ndisFreeMemory)
	k.Register("NdisAllocateSpinLock", ndisAllocateSpinLock)
	k.Register("NdisFreeSpinLock", ndisFreeSpinLock)
	k.Register("NdisAcquireSpinLock", ndisAcquireSpinLock)
	k.Register("NdisReleaseSpinLock", ndisReleaseSpinLock)
	k.Register("NdisDprAcquireSpinLock", ndisDprAcquireSpinLock)
	k.Register("NdisDprReleaseSpinLock", ndisDprReleaseSpinLock)
	k.Register("NdisMInitializeTimer", ndisMInitializeTimer)
	k.Register("NdisMSetTimer", ndisMSetTimer)
	k.Register("NdisMCancelTimer", ndisMCancelTimer)
	k.Register("NdisMRegisterInterrupt", ndisMRegisterInterrupt)
	k.Register("NdisMDeregisterInterrupt", ndisMDeregisterInterrupt)
	k.Register("NdisMMapIoSpace", ndisMMapIoSpace)
	k.Register("NdisMRegisterIoPortRange", ndisMRegisterIoPortRange)
	k.Register("NdisAllocatePacketPool", ndisAllocatePacketPool)
	k.Register("NdisFreePacketPool", ndisFreePacketPool)
	k.Register("NdisAllocatePacket", ndisAllocatePacket)
	k.Register("NdisFreePacket", ndisFreePacket)
	k.Register("NdisAllocateBufferPool", ndisAllocateBufferPool)
	k.Register("NdisFreeBufferPool", ndisFreeBufferPool)
	k.Register("NdisAllocateBuffer", ndisAllocateBuffer)
	k.Register("NdisFreeBuffer", ndisFreeBuffer)
	k.Register("NdisMAllocateSharedMemory", ndisMAllocateSharedMemory)
	k.Register("NdisMFreeSharedMemory", ndisMFreeSharedMemory)
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

func nop(k *Kernel, s *vm.State) ([]*vm.State, error) {
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisMRegisterMiniport(charsPtr) reads the driver's entry-point table:
// { Initialize, Send, QueryInformation, SetInformation, Halt, ISR,
//
//	HandleInterrupt }, seven words.
func ndisMRegisterMiniport(k *Kernel, s *vm.State) ([]*vm.State, error) {
	ptr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	var words [7]uint32
	for i := range words {
		words[i], err = k.readU32(s, ptr+uint32(i*4))
		if err != nil {
			return nil, err
		}
	}
	ks := Of(s)
	ks.Miniport = &MiniportChars{
		InitializePC: words[0], SendPC: words[1], QueryInfoPC: words[2],
		SetInfoPC: words[3], HaltPC: words[4], ISRPC: words[5], HandleIntPC: words[6],
	}
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisOpenConfiguration(statusPtr, handlePtr)
func ndisOpenConfiguration(k *Kernel, s *vm.State) ([]*vm.State, error) {
	statusPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	handlePtr, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	h := ks.NewHandle()
	ks.ConfigHandles[h] = ConfigHandle{Label: "NdisOpenConfiguration", PC: s.PC}
	k.writeU32(s, statusPtr, StatusSuccess)
	k.writeU32(s, handlePtr, h)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisReadConfiguration(statusPtr, paramPtrPtr, handle, namePtr, type)
//
// Returns a kernel-owned parameter block { Type u32, IntegerData u32 }.
// The stock annotation set replaces IntegerData with a symbolic value
// (the paper's flagship annotation example).
func ndisReadConfiguration(k *Kernel, s *vm.State) ([]*vm.State, error) {
	statusPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	paramPtrPtr, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	handle, err := k.ArgConcrete(s, 2)
	if err != nil {
		return nil, err
	}
	namePtr, err := k.ArgConcrete(s, 3)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	if _, open := ks.ConfigHandles[handle]; !open {
		return nil, k.verifierBug(s, BugCheckBadPoolCaller,
			"NdisReadConfiguration on closed or invalid handle %#x", handle)
	}
	name, ok := s.Mem.ReadCString(namePtr, 128)
	if !ok {
		return nil, vm.Faultf("memory", s.PC, "unterminated or symbolic configuration name at %#x", namePtr)
	}
	val, present := ks.Registry[name]
	if !present {
		k.writeU32(s, statusPtr, StatusFailure)
		k.SetRet(s, StatusFailure)
		return nil, nil
	}
	block, err := ks.HeapAlloc(8, "cfgparam:"+name, "param", s.ICount, s.PC)
	if err != nil {
		return nil, vm.Faultf("engine", s.PC, "%v", err)
	}
	// Parameter blocks are kernel bookkeeping, not driver-leakable memory.
	delete(ks.Allocs, block)
	k.writeU32(s, block, ParamInteger)
	k.writeU32(s, block+4, val)
	k.writeU32(s, statusPtr, StatusSuccess)
	k.writeU32(s, paramPtrPtr, block)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func ndisCloseConfiguration(k *Kernel, s *vm.State) ([]*vm.State, error) {
	handle, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	if _, open := ks.ConfigHandles[handle]; !open {
		return nil, k.verifierBug(s, BugCheckBadPoolCaller,
			"NdisCloseConfiguration on invalid handle %#x", handle)
	}
	delete(ks.ConfigHandles, handle)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisAllocateMemoryWithTag(ptrPtr, length, tag) -> status
func ndisAllocateMemoryWithTag(k *Kernel, s *vm.State) ([]*vm.State, error) {
	ptrPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	length, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	tag, err := k.ArgConcrete(s, 2)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	addr, aerr := ks.heapAlloc(Alloc{Size: length, PoolTag: tag, Kind: "pool", Seq: s.ICount, PC: s.PC})
	if aerr != nil {
		k.writeU32(s, ptrPtr, 0)
		k.SetRet(s, StatusResources)
		return nil, nil
	}
	k.writeU32(s, ptrPtr, addr)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisFreeMemory(ptr, length, flags)
func ndisFreeMemory(k *Kernel, s *vm.State) ([]*vm.State, error) {
	ptr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	if !ks.HeapFree(ptr) {
		return nil, k.verifierBug(s, BugCheckBadPoolCaller,
			"NdisFreeMemory of non-allocated pointer %#x", ptr)
	}
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func lockAt(ks *KState, addr uint32) *Spin {
	sp, ok := ks.Spinlocks[addr]
	if !ok {
		sp = &Spin{}
		ks.Spinlocks[addr] = sp
	}
	return sp
}

func ndisAllocateSpinLock(k *Kernel, s *vm.State) ([]*vm.State, error) {
	addr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	lockAt(Of(s), addr).Inited = true
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func ndisFreeSpinLock(k *Kernel, s *vm.State) ([]*vm.State, error) {
	addr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	if sp, ok := ks.Spinlocks[addr]; ok && sp.Held {
		return nil, k.verifierBug(s, BugCheckSpinlockNotOwned,
			"NdisFreeSpinLock of held lock %#x", addr)
	}
	delete(ks.Spinlocks, addr)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func ndisAcquireSpinLock(k *Kernel, s *vm.State) ([]*vm.State, error) {
	addr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	sp := lockAt(ks, addr)
	if sp.Held {
		// Single-CPU model: re-acquiring a held spinlock never returns.
		return nil, vm.Faultf("deadlock", s.PC,
			"NdisAcquireSpinLock self-deadlock on lock %#x", addr)
	}
	sp.Held = true
	sp.DprOwned = false
	sp.OldIrql = ks.IRQL
	ks.IRQL = DispatchLevel
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func ndisReleaseSpinLock(k *Kernel, s *vm.State) ([]*vm.State, error) {
	addr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	sp, ok := ks.Spinlocks[addr]
	if !ok || !sp.Held {
		return nil, k.verifierBug(s, BugCheckSpinlockNotOwned,
			"NdisReleaseSpinLock of lock %#x that is not held", addr)
	}
	if sp.DprOwned {
		// Acquired with NdisDprAcquireSpinLock: releasing with the non-Dpr
		// variant restores a stale saved IRQL — specifically prohibited by
		// the documentation and the Intel Pro/100 bug of Table 2.
		return nil, k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
			"NdisReleaseSpinLock used for lock %#x acquired with NdisDprAcquireSpinLock (IRQL corruption in DPC)", addr)
	}
	if ks.IRQL != DispatchLevel {
		// Releasing while the IRQL is not DISPATCH means some other lock's
		// release already lowered it: an out-of-order release sequence.
		return nil, k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
			"NdisReleaseSpinLock of lock %#x at %s (out-of-order spinlock release)", addr, IrqlName(ks.IRQL))
	}
	sp.Held = false
	ks.IRQL = sp.OldIrql
	if ks.InDpc && ks.IRQL < DispatchLevel {
		return nil, k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
			"spinlock release lowered IRQL to %s inside a DPC", IrqlName(ks.IRQL))
	}
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func ndisDprAcquireSpinLock(k *Kernel, s *vm.State) ([]*vm.State, error) {
	addr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	if ks.IRQL < DispatchLevel {
		return nil, k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
			"NdisDprAcquireSpinLock called at %s (requires DISPATCH_LEVEL)", IrqlName(ks.IRQL))
	}
	sp := lockAt(ks, addr)
	if sp.Held {
		return nil, vm.Faultf("deadlock", s.PC,
			"NdisDprAcquireSpinLock self-deadlock on lock %#x", addr)
	}
	sp.Held = true
	sp.DprOwned = true
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func ndisDprReleaseSpinLock(k *Kernel, s *vm.State) ([]*vm.State, error) {
	addr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	sp, ok := ks.Spinlocks[addr]
	if !ok || !sp.Held {
		return nil, k.verifierBug(s, BugCheckSpinlockNotOwned,
			"NdisDprReleaseSpinLock of lock %#x that is not held", addr)
	}
	if !sp.DprOwned {
		return nil, k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
			"NdisDprReleaseSpinLock used for lock %#x acquired with NdisAcquireSpinLock", addr)
	}
	sp.Held = false
	sp.DprOwned = false
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisMInitializeTimer(timerPtr, adapter, funcPC, ctx)
func ndisMInitializeTimer(k *Kernel, s *vm.State) ([]*vm.State, error) {
	timerPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	funcPC, err := k.ArgConcrete(s, 2)
	if err != nil {
		return nil, err
	}
	ctx, err := k.ArgConcrete(s, 3)
	if err != nil {
		return nil, err
	}
	Of(s).Timers[timerPtr] = &Timer{Initialized: true, FuncPC: funcPC, Ctx: ctx}
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisMSetTimer(timerPtr, milliseconds)
func ndisMSetTimer(k *Kernel, s *vm.State) ([]*vm.State, error) {
	timerPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	t, ok := ks.Timers[timerPtr]
	if !ok || !t.Initialized {
		// The RTL8029 race of Table 2: an interrupt arriving before
		// NdisMInitializeTimer hands the kernel an uninitialized timer.
		return nil, k.verifierBug(s, BugCheckTimerNotInitialized,
			"NdisMSetTimer on uninitialized timer descriptor %#x", timerPtr)
	}
	t.Queued = true
	ks.PendingDPCs = append(ks.PendingDPCs, DPC{FuncPC: t.FuncPC, Ctx: t.Ctx, Label: "timer"})
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func ndisMCancelTimer(k *Kernel, s *vm.State) ([]*vm.State, error) {
	timerPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	canceledPtr, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	was := uint32(0)
	if t, ok := ks.Timers[timerPtr]; ok && t.Queued {
		t.Queued = false
		was = 1
	}
	if canceledPtr != 0 {
		k.writeU32(s, canceledPtr, was)
	}
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisMRegisterInterrupt(intrPtr, adapter, vector, level, shared, mode)
func ndisMRegisterInterrupt(k *Kernel, s *vm.State) ([]*vm.State, error) {
	ks := Of(s)
	if ks.Miniport == nil || ks.Miniport.ISRPC == 0 {
		return nil, k.verifierBug(s, BugCheckDriverFault,
			"NdisMRegisterInterrupt before miniport registration")
	}
	ks.ISRRegistered = true
	ks.ISRPC = ks.Miniport.ISRPC
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func ndisMDeregisterInterrupt(k *Kernel, s *vm.State) ([]*vm.State, error) {
	Of(s).ISRRegistered = false
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisMMapIoSpace(vaPtr, adapter, physAddr, length) -> status
func ndisMMapIoSpace(k *Kernel, s *vm.State) ([]*vm.State, error) {
	vaPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	k.writeU32(s, vaPtr, isa.MMIOBase)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisMRegisterIoPortRange(portVaPtr, adapter, start, count) -> status
func ndisMRegisterIoPortRange(k *Kernel, s *vm.State) ([]*vm.State, error) {
	portVaPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	start, err := k.ArgConcrete(s, 2)
	if err != nil {
		return nil, err
	}
	k.writeU32(s, portVaPtr, start)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisAllocatePacketPool(statusPtr, poolPtr, descriptors, rsvdLen)
func ndisAllocatePacketPool(k *Kernel, s *vm.State) ([]*vm.State, error) {
	statusPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	poolPtr, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	n, err := k.ArgConcrete(s, 2)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	h := ks.NewHandle()
	ks.PacketPools[h] = &Pool{Capacity: n}
	k.writeU32(s, statusPtr, StatusSuccess)
	k.writeU32(s, poolPtr, h)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func ndisFreePacketPool(k *Kernel, s *vm.State) ([]*vm.State, error) {
	h, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	pool, ok := ks.PacketPools[h]
	if !ok {
		return nil, k.verifierBug(s, BugCheckBadPoolCaller,
			"NdisFreePacketPool of invalid pool %#x", h)
	}
	if pool.Live > 0 {
		return nil, k.verifierBug(s, BugCheckBadPoolCaller,
			"NdisFreePacketPool with %d packets outstanding", pool.Live)
	}
	delete(ks.PacketPools, h)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisAllocatePacket(statusPtr, pktPtr, poolHandle)
func ndisAllocatePacket(k *Kernel, s *vm.State) ([]*vm.State, error) {
	statusPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	pktPtr, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	h, err := k.ArgConcrete(s, 2)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	pool, ok := ks.PacketPools[h]
	if !ok {
		return nil, k.verifierBug(s, BugCheckBadPoolCaller,
			"NdisAllocatePacket from invalid pool %#x", h)
	}
	if uint32(pool.Live) >= pool.Capacity {
		k.writeU32(s, statusPtr, StatusResources)
		k.writeU32(s, pktPtr, 0)
		k.SetRet(s, StatusResources)
		return nil, nil
	}
	addr, aerr := ks.HeapAlloc(64, "packet", "packet", s.ICount, s.PC)
	if aerr != nil {
		return nil, vm.Faultf("engine", s.PC, "%v", aerr)
	}
	// Packets are tracked separately from pool allocations.
	delete(ks.Allocs, addr)
	pool.Live++
	ks.Packets[addr] = PacketInfo{Pool: h, PC: s.PC}
	k.writeU32(s, statusPtr, StatusSuccess)
	k.writeU32(s, pktPtr, addr)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func ndisFreePacket(k *Kernel, s *vm.State) ([]*vm.State, error) {
	pkt, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	pi, ok := ks.Packets[pkt]
	if !ok {
		return nil, k.verifierBug(s, BugCheckBadPoolCaller,
			"NdisFreePacket of invalid packet %#x", pkt)
	}
	delete(ks.Packets, pkt)
	if pool, ok := ks.PacketPools[pi.Pool]; ok {
		pool.Live--
	}
	ks.Revoke(pkt, pkt+64)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisAllocateBufferPool(statusPtr, poolPtr, descriptors)
func ndisAllocateBufferPool(k *Kernel, s *vm.State) ([]*vm.State, error) {
	statusPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	poolPtr, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	n, err := k.ArgConcrete(s, 2)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	h := ks.NewHandle()
	ks.BufferPools[h] = &Pool{Capacity: n}
	k.writeU32(s, statusPtr, StatusSuccess)
	k.writeU32(s, poolPtr, h)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func ndisFreeBufferPool(k *Kernel, s *vm.State) ([]*vm.State, error) {
	h, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	pool, ok := ks.BufferPools[h]
	if !ok {
		return nil, k.verifierBug(s, BugCheckBadPoolCaller,
			"NdisFreeBufferPool of invalid pool %#x", h)
	}
	if pool.Live > 0 {
		return nil, k.verifierBug(s, BugCheckBadPoolCaller,
			"NdisFreeBufferPool with %d buffers outstanding", pool.Live)
	}
	delete(ks.BufferPools, h)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisAllocateBuffer(statusPtr, bufPtr, poolHandle, vaddr, length)
func ndisAllocateBuffer(k *Kernel, s *vm.State) ([]*vm.State, error) {
	statusPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	bufPtr, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	h, err := k.ArgConcrete(s, 2)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	pool, ok := ks.BufferPools[h]
	if !ok {
		return nil, k.verifierBug(s, BugCheckBadPoolCaller,
			"NdisAllocateBuffer from invalid pool %#x", h)
	}
	addr, aerr := ks.HeapAlloc(32, "buffer", "buffer", s.ICount, s.PC)
	if aerr != nil {
		return nil, vm.Faultf("engine", s.PC, "%v", aerr)
	}
	pool.Live++
	k.writeU32(s, statusPtr, StatusSuccess)
	k.writeU32(s, bufPtr, addr)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func ndisFreeBuffer(k *Kernel, s *vm.State) ([]*vm.State, error) {
	buf, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	a, ok := ks.Allocs[buf]
	if !ok || a.Kind != "buffer" {
		return nil, k.verifierBug(s, BugCheckBadPoolCaller,
			"NdisFreeBuffer of invalid buffer %#x", buf)
	}
	ks.HeapFree(buf)
	for _, pool := range ks.BufferPools {
		if pool.Live > 0 {
			pool.Live--
			break
		}
	}
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisMAllocateSharedMemory(adapter, length, cached, vaPtr, paPtr)
func ndisMAllocateSharedMemory(k *Kernel, s *vm.State) ([]*vm.State, error) {
	length, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	vaPtr, err := k.ArgConcrete(s, 3)
	if err != nil {
		return nil, err
	}
	paPtr, err := k.ArgConcrete(s, 4)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	addr, aerr := ks.HeapAlloc(length, "dma", "shared", s.ICount, s.PC)
	if aerr != nil {
		k.writeU32(s, vaPtr, 0)
		k.writeU32(s, paPtr, 0)
		k.SetRet(s, StatusResources)
		return nil, nil
	}
	k.writeU32(s, vaPtr, addr)
	k.writeU32(s, paPtr, addr) // identity "physical" mapping
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisMFreeSharedMemory(adapter, length, cached, va, pa)
func ndisMFreeSharedMemory(k *Kernel, s *vm.State) ([]*vm.State, error) {
	va, err := k.ArgConcrete(s, 3)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	if !ks.HeapFree(va) {
		return nil, k.verifierBug(s, BugCheckBadPoolCaller,
			"NdisMFreeSharedMemory of non-allocated pointer %#x", va)
	}
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisReadNetworkAddress(statusPtr, addrPtrPtr, lenPtr, handle)
func ndisReadNetworkAddress(k *Kernel, s *vm.State) ([]*vm.State, error) {
	statusPtr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	addrPtrPtr, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	lenPtr, err := k.ArgConcrete(s, 2)
	if err != nil {
		return nil, err
	}
	ks := Of(s)
	block, aerr := ks.HeapAlloc(8, "netaddr", "param", s.ICount, s.PC)
	if aerr != nil {
		return nil, vm.Faultf("engine", s.PC, "%v", aerr)
	}
	delete(ks.Allocs, block)
	s.Mem.WriteBytes(block, []byte{0x02, 0x11, 0x22, 0x33, 0x44, 0x55, 0, 0})
	k.writeU32(s, statusPtr, StatusSuccess)
	k.writeU32(s, addrPtrPtr, block)
	k.writeU32(s, lenPtr, 6)
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisZeroMemory(dst, length)
func ndisZeroMemory(k *Kernel, s *vm.State) ([]*vm.State, error) {
	dst, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	length, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	if length > 1<<20 {
		return nil, k.verifierBug(s, BugCheckDriverFault, "NdisZeroMemory of %d bytes", length)
	}
	for i := uint32(0); i < length; i++ {
		s.Mem.StoreByte(dst+i, expr.Const(0))
	}
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

// NdisMoveMemory(dst, src, length) — the kernel validates both ranges
// against the driver's grants, Driver Verifier style.
func ndisMoveMemory(k *Kernel, s *vm.State) ([]*vm.State, error) {
	dst, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	src, err := k.ArgConcrete(s, 1)
	if err != nil {
		return nil, err
	}
	length, err := k.ArgConcrete(s, 2)
	if err != nil {
		return nil, err
	}
	if length > 1<<20 {
		return nil, k.verifierBug(s, BugCheckDriverFault, "NdisMoveMemory of %d bytes", length)
	}
	for i := uint32(0); i < length; i++ {
		s.Mem.StoreByte(dst+i, s.Mem.LoadByte(src+i))
	}
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func ndisGetCurrentSystemTime(k *Kernel, s *vm.State) ([]*vm.State, error) {
	ptr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return nil, err
	}
	k.writeU32(s, ptr, uint32(s.ICount))
	k.SetRet(s, StatusSuccess)
	return nil, nil
}

func ndisMSleep(k *Kernel, s *vm.State) ([]*vm.State, error) {
	ks := Of(s)
	if ks.IRQL >= DispatchLevel {
		return nil, k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
			"NdisMSleep called at %s", IrqlName(ks.IRQL))
	}
	k.SetRet(s, StatusSuccess)
	return nil, nil
}
