package kernel

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/isa"
	"repro/internal/vm"
)

// RegionKind classifies a memory grant, mirroring §3.1.1's list of regions
// a driver may legally touch.
type RegionKind uint8

// Memory grant kinds.
const (
	RegionImage    RegionKind = iota // loadable sections of the driver binary
	RegionStack                      // current driver stack
	RegionKGlobals                   // kernel globals explicitly imported
	RegionAlloc                      // dynamically allocated pool memory
	RegionPacket                     // packet descriptors/buffers passed to the driver
	RegionShared                     // DMA shared memory
	RegionMMIO                       // mapped device registers
	RegionParam                      // kernel-owned parameter blocks passed to entry points
)

func (k RegionKind) String() string {
	switch k {
	case RegionImage:
		return "image"
	case RegionStack:
		return "stack"
	case RegionKGlobals:
		return "kglobals"
	case RegionAlloc:
		return "alloc"
	case RegionPacket:
		return "packet"
	case RegionShared:
		return "shared"
	case RegionMMIO:
		return "mmio"
	case RegionParam:
		return "param"
	default:
		return "region?"
	}
}

// Region is one granted address range [Lo, Hi).
type Region struct {
	Lo, Hi   uint32
	Kind     RegionKind
	Writable bool
	Pageable bool // pageable memory: touching it at >= DispatchLevel is a bug
}

// Alloc records one live dynamic allocation.
type Alloc struct {
	Addr uint32
	Size uint32
	Tag  string // kernel-chosen label; empty for a driver-tagged pool block
	Kind string // "pool", "shared", "packet", "buffer"
	Seq  uint64 // allocation time (instruction count)
	PC   uint32 // driver call site, for leak attribution
	// PoolTag is the driver's tag word (NdisAllocateMemoryWithTag), kept
	// raw: only the leak checker's message formats it.
	PoolTag uint32
	// Pool is the NDIS buffer pool a "buffer" allocation was drawn from.
	Pool uint32
}

// Spin tracks one spinlock's concrete state.
type Spin struct {
	Held     bool
	OldIrql  uint8 // IRQL to restore on release
	DprOwned bool  // acquired with the Dpr (DISPATCH-level) variant
	Inited   bool
}

// Timer tracks an NDIS timer object.
type Timer struct {
	Initialized bool
	FuncPC      uint32
	Ctx         uint32
	Queued      bool
}

// Pool tracks a packet or buffer pool.
type Pool struct {
	Capacity uint32
	Live     int
}

// ConfigHandle records an open configuration handle and where it was
// opened (for leak attribution).
type ConfigHandle struct {
	Label string
	PC    uint32
}

// PacketInfo records a live packet's owning pool and allocation site.
type PacketInfo struct {
	Pool uint32
	PC   uint32
}

// DPC is a queued deferred procedure call the exerciser will dispatch at
// DispatchLevel.
type DPC struct {
	FuncPC uint32
	Ctx    uint32
	Label  string
	// Obj is the guest address of the backing KDPC object for DPCs queued
	// via KeInsertQueueDpc (0 for timer DPCs): dispatch clears its queued
	// flag so the driver may re-queue it.
	Obj uint32
}

// DpcObj tracks a driver-embedded KDPC object (KeInitializeDpc /
// KeInsertQueueDpc).
type DpcObj struct {
	Inited bool
	FuncPC uint32
	Ctx    uint32
	Queued bool
}

// MiniportChars is the entry-point table a network driver registers via
// NdisMRegisterMiniport (the driver's analogue of
// NDIS_MINIPORT_CHARACTERISTICS).
type MiniportChars struct {
	InitializePC uint32
	SendPC       uint32
	QueryInfoPC  uint32
	SetInfoPC    uint32
	HaltPC       uint32
	ISRPC        uint32
	HandleIntPC  uint32
}

// AudioChars is the audio driver's registration table (PortCls-flavoured).
type AudioChars struct {
	InitializePC uint32
	PlayPC       uint32
	StopPC       uint32
	ISRPC        uint32
	HaltPC       uint32
}

// StorageChars is the storage miniport's registration table: data-path
// entries plus the IRP_MJ_PNP / IRP_MJ_POWER dispatch handlers the
// scenario-graph workload drives (suspend/resume, surprise removal,
// cancellation).
type StorageChars struct {
	InitializePC uint32
	ReadPC       uint32
	WritePC      uint32
	CancelPC     uint32
	PnpPC        uint32
	PowerPC      uint32
	ISRPC        uint32
	HaltPC       uint32
}

// KState is the concrete kernel state attached to one execution state. It
// forks with the machine state so each explored path sees its own kernel
// world — handles, IRQL, lock ownership, live allocations. Its maps are
// shared copy-on-write between forks (kmaps).
type KState struct {
	IRQL uint8

	// IRQLStack saves pre-interrupt IRQLs across injected interrupts.
	IRQLStack []uint8

	Regions []Region

	NextHeap   uint32
	NextHandle uint32

	kmaps

	Miniport *MiniportChars
	Audio    *AudioChars
	Storage  *StorageChars

	ISRRegistered bool
	ISRPC         uint32

	PendingDPCs []DPC

	// PowerState is the device power state last set via PoSetPowerState
	// (0 = never set; PowerDeviceD0/D3 afterwards).
	PowerState uint32

	// Removed is set when the workload surprise-removes the device: from
	// then on all hardware reads return ~0 (internal/hw honours it).
	Removed bool

	Crashed   bool
	CrashCode uint32
	CrashMsg  string

	// InDpc is set while the exerciser dispatches a DPC or timer callback;
	// DPC context forbids lowering the IRQL below DISPATCH_LEVEL.
	InDpc bool

	// Failure counters consumed by annotations to fork bounded
	// allocation-failure alternatives.
	AllocFailForks int

	// Interrupts counts the injections charged to this path, the budget
	// every walker checks; only Kernel.InjectInterrupt writes it.
	Interrupts int
	// InjectPending marks a state the engine forked to take an interrupt
	// when it next runs, once its post-call PC is in place.
	InjectPending bool
	// SeedCursor counts the symbols minted on this path: the index into a
	// Kernel.SymbolSeed prefix, inherited so forked siblings stay aligned.
	SeedCursor uint64
}

// kmaps is the kernel's keyed bookkeeping. Every map holds values, not
// pointers, so a write never reaches another state through a shared
// struct, and every write goes through cowMap.set or cowMap.del with the
// writing state's key.
type kmaps struct {
	// key identifies this state to its maps: a map whose owner is key is
	// this state's private copy, any other is shared with forks.
	key *cowKey

	allocs        cowMap[uint32, Alloc]
	spinlocks     cowMap[uint32, Spin]
	configHandles cowMap[uint32, ConfigHandle]
	timers        cowMap[uint32, Timer]
	packetPools   cowMap[uint32, Pool]
	bufferPools   cowMap[uint32, Pool]
	packets       cowMap[uint32, PacketInfo]
	registry      cowMap[string, uint32]
	intrSyncs     cowMap[uint32, bool]   // PcNewInterruptSync objects
	dpcs          cowMap[uint32, DpcObj] // driver-embedded KDPC objects by guest address
}

// cowKey is a state's identity as a map owner. Only its address matters;
// the field gives each key an address of its own.
type cowKey struct{ _ byte }

func newKMaps() kmaps {
	key := new(cowKey)
	return kmaps{
		key:           key,
		allocs:        newCowMap[uint32, Alloc](key),
		spinlocks:     newCowMap[uint32, Spin](key),
		configHandles: newCowMap[uint32, ConfigHandle](key),
		timers:        newCowMap[uint32, Timer](key),
		packetPools:   newCowMap[uint32, Pool](key),
		bufferPools:   newCowMap[uint32, Pool](key),
		packets:       newCowMap[uint32, PacketInfo](key),
		registry:      newCowMap[string, uint32](key),
		intrSyncs:     newCowMap[uint32, bool](key),
		dpcs:          newCowMap[uint32, DpcObj](key),
	}
}

// share returns the maps for a fork under a new key, so the fork owns none
// of them, and gives m a new key too when it owned any: from here on the
// first write on either side copies the map it writes. A state that owns
// no map is not written, which lets fabric executors fork one frozen
// snapshot's kernel state concurrently.
func (m *kmaps) share() kmaps {
	n := *m
	n.key = new(cowKey)
	if k := m.key; m.allocs.owner == k || m.spinlocks.owner == k || m.configHandles.owner == k ||
		m.timers.owner == k || m.packetPools.owner == k || m.bufferPools.owner == k ||
		m.packets.owner == k || m.registry.owner == k || m.intrSyncs.owner == k || m.dpcs.owner == k {
		m.key = new(cowKey)
	}
	return n
}

// restore makes every map of m a private copy of src's (cowMap.restore).
func (m *kmaps) restore(src *kmaps) {
	k := m.key
	m.allocs.restore(k, src.allocs)
	m.spinlocks.restore(k, src.spinlocks)
	m.configHandles.restore(k, src.configHandles)
	m.timers.restore(k, src.timers)
	m.packetPools.restore(k, src.packetPools)
	m.bufferPools.restore(k, src.bufferPools)
	m.packets.restore(k, src.packets)
	m.registry.restore(k, src.registry)
	m.intrSyncs.restore(k, src.intrSyncs)
	m.dpcs.restore(k, src.dpcs)
}

// cowMap is a map shared read-only between a state and its forks until the
// first write on either side copies it, as KLEE shares object states
// between forked states. owner is the key of the state that may write m in
// place; m is never nil.
type cowMap[K comparable, V comparable] struct {
	m     map[K]V
	owner *cowKey
}

func newCowMap[K comparable, V comparable](owner *cowKey) cowMap[K, V] {
	return cowMap[K, V]{m: make(map[K]V), owner: owner}
}

// get returns k's value and whether k is present.
func (c *cowMap[K, V]) get(k K) (V, bool) {
	v, ok := c.m[k]
	return v, ok
}

// set stores v under k for the state keyed key, first copying a map it
// does not own.
func (c *cowMap[K, V]) set(key *cowKey, k K, v V) {
	c.own(key)
	c.m[k] = v
}

// del removes k for the state keyed key, first copying a map it does not
// own; an absent k writes nothing.
func (c *cowMap[K, V]) del(key *cowKey, k K) {
	if _, ok := c.m[k]; ok {
		c.own(key)
		delete(c.m, k)
	}
}

// own makes c's map private to the state keyed key before it writes.
func (c *cowMap[K, V]) own(key *cowKey) {
	if c.owner != key {
		c.m, c.owner = maps.Clone(c.m), key
	}
}

// restore makes c a map private to the state keyed key holding exactly
// src's entries. An owned map is rewritten in place, and left untouched
// when it already equals src, which spares the common restore from a
// snapshot of the same boot (the string-keyed registry above all) any
// write. A shared map is replaced, never written.
func (c *cowMap[K, V]) restore(key *cowKey, src cowMap[K, V]) {
	switch {
	case c.owner != key:
		c.m, c.owner = make(map[K]V, len(src.m)), key
	case maps.Equal(c.m, src.m):
		return
	default:
		clear(c.m)
	}
	for k, v := range src.m {
		c.m[k] = v
	}
}

// NewKState builds the boot-time kernel state for a freshly loaded driver
// image: image and stack grants, kernel globals, and registry defaults.
func NewKState() *KState {
	ks := &KState{
		NextHeap:   isa.HeapBase,
		NextHandle: 0x8000_0001,
		kmaps:      newKMaps(),
	}
	ks.Grant(Region{Lo: isa.KGlobals, Hi: isa.KGlobals + isa.KGlobalsSz, Kind: RegionKGlobals, Writable: false})
	ks.Grant(Region{Lo: isa.StackBase - isa.StackSize, Hi: isa.StackBase, Kind: RegionStack, Writable: true})
	return ks
}

// Fork returns a copy of the kernel state (vm.Forkable) that shares every
// map with ks until either side writes it. Slices and characteristics
// tables are copied.
func (ks *KState) Fork() vm.Forkable {
	n := new(KState)
	n.copyFrom(ks, ks.kmaps.share())
	return n
}

// RestoreFrom overwrites ks with a copy of src, a *KState (vm.Forkable).
// ks keeps its slices' backing arrays, the maps it owns and its
// characteristics tables, and shares none of them with src afterwards; a
// map ks shares is replaced by a private one, never written.
func (ks *KState) RestoreFrom(f vm.Forkable) {
	src := f.(*KState)
	m := ks.kmaps
	m.restore(&src.kmaps)
	ks.copyFrom(src, m)
}

// copyFrom overwrites ks with src's fields and the maps m, reusing ks's
// slices and characteristics tables. This is the one list of KState fields
// a copy carries: Fork and RestoreFrom differ only in how they carry the
// maps.
func (ks *KState) copyFrom(src *KState, m kmaps) {
	*ks = KState{
		IRQL:           src.IRQL,
		IRQLStack:      append(ks.IRQLStack[:0], src.IRQLStack...),
		Regions:        append(ks.Regions[:0], src.Regions...),
		NextHeap:       src.NextHeap,
		NextHandle:     src.NextHandle,
		kmaps:          m,
		Miniport:       restorePtr(ks.Miniport, src.Miniport),
		Audio:          restorePtr(ks.Audio, src.Audio),
		Storage:        restorePtr(ks.Storage, src.Storage),
		ISRRegistered:  src.ISRRegistered,
		ISRPC:          src.ISRPC,
		PendingDPCs:    append(ks.PendingDPCs[:0], src.PendingDPCs...),
		PowerState:     src.PowerState,
		Removed:        src.Removed,
		Crashed:        src.Crashed,
		CrashCode:      src.CrashCode,
		CrashMsg:       src.CrashMsg,
		InDpc:          src.InDpc,
		AllocFailForks: src.AllocFailForks,
		Interrupts:     src.Interrupts,
		InjectPending:  src.InjectPending,
		SeedCursor:     src.SeedCursor,
	}
}

// restorePtr returns a copy of *src, written into dst when there is one.
func restorePtr[V any](dst, src *V) *V {
	switch {
	case src == nil:
		return nil
	case dst == nil:
		dst = new(V)
	}
	*dst = *src
	return dst
}

// TakeDPC pops the head of the pending-DPC queue. For DPCs queued via
// KeInsertQueueDpc it clears the backing object's queued flag so the
// driver may re-queue it; timer DPCs (Obj == 0) are unaffected. All
// dispatch sites (symbolic engine, fuzz) must pop through here.
func (ks *KState) TakeDPC() DPC {
	d := ks.PendingDPCs[0]
	ks.PendingDPCs = ks.PendingDPCs[1:]
	if d.Obj != 0 {
		if o, ok := ks.dpcs.get(d.Obj); ok {
			o.Queued = false
			ks.dpcs.set(ks.key, d.Obj, o)
		}
	}
	return d
}

// Of extracts the kernel state attached to a vm state.
func Of(s *vm.State) *KState { return s.Kernel.(*KState) }

// Grant adds a memory grant.
func (ks *KState) Grant(r Region) { ks.Regions = append(ks.Regions, r) }

// Revoke removes grants exactly matching [lo,hi). It reports whether a
// grant was found.
func (ks *KState) Revoke(lo, hi uint32) bool {
	for i, r := range ks.Regions {
		if r.Lo == lo && r.Hi == hi {
			ks.Regions = append(ks.Regions[:i], ks.Regions[i+1:]...)
			return true
		}
	}
	return false
}

// FindRegion returns the grant containing [addr, addr+size), if any.
func (ks *KState) FindRegion(addr, size uint32) (Region, bool) {
	for _, r := range ks.Regions {
		if addr >= r.Lo && addr+size <= r.Hi {
			return r, true
		}
	}
	return Region{}, false
}

// HeapAlloc carves size bytes out of the kernel heap window, records the
// allocation (attributed to driver call site pc), and grants access.
func (ks *KState) HeapAlloc(size uint32, tag, kind string, seq uint64, pc uint32) (uint32, error) {
	return ks.HeapAllocRecord(Alloc{Size: size, Tag: tag, Kind: kind, Seq: seq, PC: pc})
}

// HeapAllocRecord is HeapAlloc for a prepared record; it fills in a.Addr.
func (ks *KState) HeapAllocRecord(a Alloc) (uint32, error) {
	addr, err := ks.KernelAlloc(a.Size)
	if err != nil {
		return 0, err
	}
	a.Addr = addr
	ks.allocs.set(ks.key, addr, a)
	return addr, nil
}

// KernelAlloc carves size bytes out of the kernel heap window and grants
// access without recording an allocation: the block is kernel-owned
// (parameter blocks, packets, workload buffers), so the driver cannot leak
// or free it.
func (ks *KState) KernelAlloc(size uint32) (uint32, error) {
	sz := (size + 15) &^ 15
	if ks.NextHeap+sz > isa.HeapLimit {
		return 0, fmt.Errorf("kernel heap exhausted")
	}
	addr := ks.NextHeap
	ks.NextHeap += sz
	ks.Grant(Region{Lo: addr, Hi: addr + size, Kind: RegionAlloc, Writable: true})
	return addr, nil
}

// HeapFree releases an allocation; it reports false for an address that is
// not a live allocation (double free / bad pointer).
func (ks *KState) HeapFree(addr uint32) bool {
	a, ok := ks.allocs.get(addr)
	if !ok {
		return false
	}
	ks.allocs.del(ks.key, addr)
	ks.Revoke(addr, addr+a.Size)
	return true
}

// NewHandle mints an opaque kernel handle.
func (ks *KState) NewHandle() uint32 {
	h := ks.NextHandle
	ks.NextHandle++
	return h
}

// OpenConfig mints a configuration handle opened by label at driver call
// site pc, for the leak checker to attribute if it is never closed.
func (ks *KState) OpenConfig(label string, pc uint32) uint32 {
	h := ks.NewHandle()
	ks.configHandles.set(ks.key, h, ConfigHandle{Label: label, PC: pc})
	return h
}

// SetSpinlock records the state of the spinlock at addr.
func (ks *KState) SetSpinlock(addr uint32, sp Spin) { ks.spinlocks.set(ks.key, addr, sp) }

// SetRegistry sets a registry value the driver reads back through
// NdisReadConfiguration.
func (ks *KState) SetRegistry(name string, v uint32) { ks.registry.set(ks.key, name, v) }

// FreePacket returns the live packet at addr to its pool; it reports false
// when addr is not a live packet.
func (ks *KState) FreePacket(addr uint32) bool {
	pi, ok := ks.packets.get(addr)
	if !ok {
		return false
	}
	ks.packets.del(ks.key, addr)
	ks.release(packetPool, pi.Pool)
	return true
}

// IntrSync reports whether addr is a live interrupt-sync object
// (PcNewInterruptSync).
func (ks *KState) IntrSync(addr uint32) bool {
	v, _ := ks.intrSyncs.get(addr)
	return v
}

// DropIntrSync forgets the interrupt-sync object at addr.
func (ks *KState) DropIntrSync(addr uint32) { ks.intrSyncs.del(ks.key, addr) }

// LiveAllocs returns allocations that were never freed, ordered by
// allocation time, for the resource leak checker.
func (ks *KState) LiveAllocs() []Alloc {
	var out []Alloc
	for _, a := range ks.allocs.m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// LivePackets counts packets never freed back to their pool.
func (ks *KState) LivePackets() int { return len(ks.packets.m) }

// OpenConfigHandles returns configuration handles never closed, ordered by
// open site.
func (ks *KState) OpenConfigHandles() []ConfigHandle {
	var out []ConfigHandle
	for _, h := range ks.configHandles.m {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}

// HeldSpinlocks returns addresses of spinlocks still held, sorted.
func (ks *KState) HeldSpinlocks() []uint32 {
	var out []uint32
	for addr, sp := range ks.spinlocks.m {
		if sp.Held {
			out = append(out, addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LivePacketList returns live packets ordered by allocation site.
func (ks *KState) LivePacketList() []PacketInfo {
	var out []PacketInfo
	for _, p := range ks.packets.m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}
