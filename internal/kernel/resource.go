package kernel

import (
	"strings"

	"repro/internal/vm"
)

// The kernel resources the NDIS and WDM APIs share have one implementation
// each, here: pool frees, spinlocks, NDIS packet and buffer pools, and
// miniport entry-point tables. registerNdisAPI and registerWdmAPI bind the
// API names to them.

// freeAlloc is a pool free (NdisFreeMemory, ExFreePoolWithTag,
// NdisMFreeSharedMemory) of the pointer in argument arg: anything but a
// live allocation is a BAD_POOL_CALLER bug check.
func freeAlloc(api string, arg int) Handler {
	return func(k *Kernel, s *vm.State) error {
		ptr, err := k.ArgConcrete(s, arg)
		if err != nil {
			return err
		}
		if !Of(s).HeapFree(ptr) {
			return k.verifierBug(s, BugCheckBadPoolCaller,
				"%s of non-allocated pointer %#x", api, ptr)
		}
		k.SetRet(s, StatusSuccess)
		return nil
	}
}

// spinFlavour is a spinlock API pair, named as the prefix of its API names
// ("NdisDprAcquireSpinLock"). The NDIS pair saves the IRQL in the lock and
// raises it to DISPATCH_LEVEL, and its release restores the saved level;
// the NDIS Dpr pair runs at DISPATCH_LEVEL and leaves the IRQL alone; the
// Ke pair hands the old IRQL to the caller (oldIrqlPtr, the acquire's
// second argument) and its release sets the level the caller passes back
// (newIrql, the release's second argument).
type spinFlavour string

const (
	spinNdis spinFlavour = "Ndis"
	spinDpr  spinFlavour = "NdisDpr"
	spinKe   spinFlavour = "Ke"
)

// initSpinLock is NdisAllocateSpinLock and KeInitializeSpinLock(lockPtr).
func initSpinLock(k *Kernel, s *vm.State) error {
	addr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	ks := Of(s)
	sp, _ := ks.spinlocks.get(addr)
	sp.Inited = true
	ks.SetSpinlock(addr, sp)
	k.SetRet(s, StatusSuccess)
	return nil
}

// acquireSpinLock is the spinlock acquire of every flavour (lockPtr[,
// oldIrqlPtr]).
func acquireSpinLock(fl spinFlavour) Handler {
	api := string(fl) + "AcquireSpinLock"
	return func(k *Kernel, s *vm.State) error {
		addr, err := k.ArgConcrete(s, 0)
		if err != nil {
			return err
		}
		var oldIrqlPtr uint32
		if fl == spinKe {
			if oldIrqlPtr, err = k.ArgConcrete(s, 1); err != nil {
				return err
			}
		}
		ks := Of(s)
		if fl == spinDpr && ks.IRQL < DispatchLevel {
			return k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
				"%s called at %s (requires DISPATCH_LEVEL)", api, IrqlName(ks.IRQL))
		}
		sp, _ := ks.spinlocks.get(addr)
		if sp.Held {
			// Single-CPU model: re-acquiring a held spinlock never returns.
			return vm.Faultf("deadlock", s.PC, "%s self-deadlock on lock %#x", api, addr)
		}
		sp.Held = true
		sp.DprOwned = fl == spinDpr
		if !sp.DprOwned {
			sp.OldIrql = ks.IRQL
			if oldIrqlPtr != 0 {
				k.writeU32(s, oldIrqlPtr, uint32(ks.IRQL))
			}
			ks.IRQL = DispatchLevel
		}
		ks.SetSpinlock(addr, sp)
		k.SetRet(s, StatusSuccess)
		return nil
	}
}

// releaseSpinLock is the spinlock release of every flavour (lockPtr[,
// newIrql]). The lock must be held, by the matching NDIS pair.
func releaseSpinLock(fl spinFlavour) Handler {
	api := string(fl) + "ReleaseSpinLock"
	return func(k *Kernel, s *vm.State) error {
		addr, err := k.ArgConcrete(s, 0)
		if err != nil {
			return err
		}
		var newIrql uint32
		if fl == spinKe {
			if newIrql, err = k.ArgConcrete(s, 1); err != nil {
				return err
			}
		}
		ks := Of(s)
		sp, ok := ks.spinlocks.get(addr)
		if !ok || !sp.Held {
			return k.verifierBug(s, BugCheckSpinlockNotOwned,
				"%s of lock %#x that is not held", api, addr)
		}
		switch {
		case fl == spinNdis && sp.DprOwned:
			// Acquired with NdisDprAcquireSpinLock: releasing with the
			// non-Dpr variant restores a stale saved IRQL — specifically
			// prohibited by the documentation and the Intel Pro/100 bug of
			// Table 2.
			return k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
				"%s used for lock %#x acquired with NdisDprAcquireSpinLock (IRQL corruption in DPC)", api, addr)
		case fl == spinDpr && !sp.DprOwned:
			return k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
				"%s used for lock %#x acquired with NdisAcquireSpinLock", api, addr)
		case fl == spinNdis && ks.IRQL != DispatchLevel:
			// Releasing while the IRQL is not DISPATCH means some other
			// lock's release already lowered it: an out-of-order release
			// sequence.
			return k.verifierBug(s, BugCheckIrqlNotLessOrEqual,
				"%s of lock %#x at %s (out-of-order spinlock release)", api, addr, IrqlName(ks.IRQL))
		}
		sp.Held, sp.DprOwned = false, false
		ks.SetSpinlock(addr, sp)
		switch fl {
		case spinNdis:
			ks.IRQL = sp.OldIrql
		case spinKe:
			ks.IRQL = uint8(newIrql)
		}
		if fl != spinDpr && ks.InDpc && ks.IRQL < DispatchLevel {
			// The Intel Pro/100 bug class: lowering IRQL below DISPATCH
			// inside a DPC corrupts the dispatcher (kernel hang or panic).
			format := "spinlock release lowered IRQL to %s inside a DPC"
			if fl == spinKe {
				format = api + " in DPC lowered IRQL to %s"
			}
			return k.verifierBug(s, BugCheckIrqlNotLessOrEqual, format, IrqlName(ks.IRQL))
		}
		k.SetRet(s, StatusSuccess)
		return nil
	}
}

// poolKind is one of the two NDIS pool families, named as in the API names
// ("NdisAllocatePacketPool", "NdisFreeBuffer"). A packet is a kernel-owned
// 64-byte descriptor (KState.packets), a buffer a 32-byte heap allocation
// the leak checker sees; each records the pool it was drawn from.
type poolKind string

const (
	packetPool poolKind = "Packet"
	bufferPool poolKind = "Buffer"
)

// pools is the kind's pool table.
func (ks *KState) pools(kind poolKind) *cowMap[uint32, Pool] {
	if kind == bufferPool {
		return &ks.bufferPools
	}
	return &ks.packetPools
}

// release returns one object to the kind's pool h, if h is still live.
func (ks *KState) release(kind poolKind, h uint32) {
	pools := ks.pools(kind)
	if pool, ok := pools.get(h); ok {
		pool.Live--
		pools.set(ks.key, h, pool)
	}
}

// allocatePool is NdisAllocatePacketPool and NdisAllocateBufferPool
// (statusPtr, poolPtr, descriptors).
func allocatePool(kind poolKind) Handler {
	return func(k *Kernel, s *vm.State) error {
		statusPtr, err := k.ArgConcrete(s, 0)
		if err != nil {
			return err
		}
		poolPtr, err := k.ArgConcrete(s, 1)
		if err != nil {
			return err
		}
		n, err := k.ArgConcrete(s, 2)
		if err != nil {
			return err
		}
		ks := Of(s)
		h := ks.NewHandle()
		ks.pools(kind).set(ks.key, h, Pool{Capacity: n})
		k.writeU32(s, statusPtr, StatusSuccess)
		k.writeU32(s, poolPtr, h)
		k.SetRet(s, StatusSuccess)
		return nil
	}
}

// freePool is NdisFreePacketPool and NdisFreeBufferPool(pool): the pool
// must be live with every object returned.
func freePool(kind poolKind) Handler {
	api := "NdisFree" + string(kind) + "Pool"
	objects := strings.ToLower(string(kind)) + "s"
	return func(k *Kernel, s *vm.State) error {
		h, err := k.ArgConcrete(s, 0)
		if err != nil {
			return err
		}
		ks := Of(s)
		pools := ks.pools(kind)
		pool, ok := pools.get(h)
		if !ok {
			return k.verifierBug(s, BugCheckBadPoolCaller, "%s of invalid pool %#x", api, h)
		}
		if pool.Live > 0 {
			return k.verifierBug(s, BugCheckBadPoolCaller,
				"%s with %d %s outstanding", api, pool.Live, objects)
		}
		pools.del(ks.key, h)
		k.SetRet(s, StatusSuccess)
		return nil
	}
}

// allocateFromPool is NdisAllocatePacket(statusPtr, pktPtr, pool) and
// NdisAllocateBuffer(statusPtr, bufPtr, pool, vaddr, length). A packet
// pool hands out at most its capacity; buffer pools are not bounded.
func allocateFromPool(kind poolKind) Handler {
	api := "NdisAllocate" + string(kind)
	return func(k *Kernel, s *vm.State) error {
		statusPtr, err := k.ArgConcrete(s, 0)
		if err != nil {
			return err
		}
		objPtr, err := k.ArgConcrete(s, 1)
		if err != nil {
			return err
		}
		h, err := k.ArgConcrete(s, 2)
		if err != nil {
			return err
		}
		ks := Of(s)
		pools := ks.pools(kind)
		pool, ok := pools.get(h)
		if !ok {
			return k.verifierBug(s, BugCheckBadPoolCaller, "%s from invalid pool %#x", api, h)
		}
		var addr uint32
		if kind == packetPool {
			if uint32(pool.Live) >= pool.Capacity {
				k.writeU32(s, statusPtr, StatusResources)
				k.writeU32(s, objPtr, 0)
				k.SetRet(s, StatusResources)
				return nil
			}
			if addr, err = ks.KernelAlloc(64); err == nil {
				ks.packets.set(ks.key, addr, PacketInfo{Pool: h, PC: s.PC})
			}
		} else {
			addr, err = ks.HeapAllocRecord(Alloc{
				Size: 32, Tag: "buffer", Kind: "buffer", Seq: s.ICount, PC: s.PC, Pool: h,
			})
		}
		if err != nil {
			return vm.Faultf("engine", s.PC, "%v", err)
		}
		pool.Live++
		pools.set(ks.key, h, pool)
		k.writeU32(s, statusPtr, StatusSuccess)
		k.writeU32(s, objPtr, addr)
		k.SetRet(s, StatusSuccess)
		return nil
	}
}

// freeToPool is NdisFreePacket(pkt) and NdisFreeBuffer(buf): it returns a
// live object to the pool it was drawn from.
func freeToPool(kind poolKind) Handler {
	api := "NdisFree" + string(kind)
	object := strings.ToLower(string(kind))
	return func(k *Kernel, s *vm.State) error {
		obj, err := k.ArgConcrete(s, 0)
		if err != nil {
			return err
		}
		ks := Of(s)
		a, ok := ks.allocs.get(obj)
		switch {
		case kind == packetPool && ks.FreePacket(obj):
			ks.Revoke(obj, obj+64)
		case kind == bufferPool && ok && a.Kind == "buffer":
			ks.HeapFree(obj)
			ks.release(bufferPool, a.Pool)
		default:
			return k.verifierBug(s, BugCheckBadPoolCaller, "%s of invalid %s %#x", api, object, obj)
		}
		k.SetRet(s, StatusSuccess)
		return nil
	}
}

// registerEntries reads the entry-point table a miniport registration
// (NdisMRegisterMiniport, PcRegisterMiniport, StorRegisterMiniport)
// passes in argument 0 into words, one word per entry point.
func (k *Kernel) registerEntries(s *vm.State, words []uint32) error {
	ptr, err := k.ArgConcrete(s, 0)
	if err != nil {
		return err
	}
	for i := range words {
		if words[i], err = k.readU32(s, ptr+uint32(i*4)); err != nil {
			return err
		}
	}
	k.SetRet(s, StatusSuccess)
	return nil
}
