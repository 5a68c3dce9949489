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
	Freed    bool
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
// world — handles, IRQL, lock ownership, live allocations.
type KState struct {
	IRQL uint8

	// IRQLStack saves pre-interrupt IRQLs across injected interrupts.
	IRQLStack []uint8

	Regions []Region

	NextHeap   uint32
	NextHandle uint32

	Allocs        map[uint32]Alloc
	Spinlocks     map[uint32]*Spin
	ConfigHandles map[uint32]ConfigHandle
	Timers        map[uint32]*Timer
	PacketPools   map[uint32]*Pool
	BufferPools   map[uint32]*Pool
	Packets       map[uint32]PacketInfo

	Registry map[string]uint32

	Miniport *MiniportChars
	Audio    *AudioChars
	Storage  *StorageChars

	ISRRegistered bool
	ISRPC         uint32
	IntrSyncs     map[uint32]bool // PcNewInterruptSync objects

	// Dpcs tracks driver-embedded KDPC objects by guest address.
	Dpcs map[uint32]*DpcObj

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

// NewKState builds the boot-time kernel state for a freshly loaded driver
// image: image and stack grants, kernel globals, and registry defaults.
func NewKState() *KState {
	ks := &KState{
		NextHeap:      isa.HeapBase,
		NextHandle:    0x8000_0001,
		Allocs:        make(map[uint32]Alloc),
		Spinlocks:     make(map[uint32]*Spin),
		ConfigHandles: make(map[uint32]ConfigHandle),
		Timers:        make(map[uint32]*Timer),
		PacketPools:   make(map[uint32]*Pool),
		BufferPools:   make(map[uint32]*Pool),
		Packets:       make(map[uint32]PacketInfo),
		Registry:      make(map[string]uint32),
		IntrSyncs:     make(map[uint32]bool),
		Dpcs:          make(map[uint32]*DpcObj),
	}
	ks.Grant(Region{Lo: isa.KGlobals, Hi: isa.KGlobals + isa.KGlobalsSz, Kind: RegionKGlobals, Writable: false})
	ks.Grant(Region{Lo: isa.StackBase - isa.StackSize, Hi: isa.StackBase, Kind: RegionStack, Writable: true})
	return ks
}

// Fork deep-copies the kernel state (vm.Forkable): a restore into a zero
// value.
func (ks *KState) Fork() vm.Forkable {
	n := new(KState)
	n.RestoreFrom(ks)
	return n
}

// RestoreFrom overwrites ks with a deep copy of src, a *KState
// (vm.Forkable). ks keeps its slices' backing arrays, its maps and the
// structs its pointer-valued map entries point to, and shares none of
// them with src afterwards. This is the one list of KState fields a copy
// carries: Fork restores into a zero value.
func (ks *KState) RestoreFrom(f vm.Forkable) {
	src := f.(*KState)
	*ks = KState{
		IRQL:           src.IRQL,
		IRQLStack:      append(ks.IRQLStack[:0], src.IRQLStack...),
		Regions:        append(ks.Regions[:0], src.Regions...),
		NextHeap:       src.NextHeap,
		NextHandle:     src.NextHandle,
		Allocs:         restoreMap(ks.Allocs, src.Allocs),
		Spinlocks:      restorePtrMap(ks.Spinlocks, src.Spinlocks),
		ConfigHandles:  restoreMap(ks.ConfigHandles, src.ConfigHandles),
		Timers:         restorePtrMap(ks.Timers, src.Timers),
		PacketPools:    restorePtrMap(ks.PacketPools, src.PacketPools),
		BufferPools:    restorePtrMap(ks.BufferPools, src.BufferPools),
		Packets:        restoreMap(ks.Packets, src.Packets),
		Registry:       restoreMap(ks.Registry, src.Registry),
		Miniport:       restorePtr(ks.Miniport, src.Miniport),
		Audio:          restorePtr(ks.Audio, src.Audio),
		Storage:        restorePtr(ks.Storage, src.Storage),
		ISRRegistered:  src.ISRRegistered,
		ISRPC:          src.ISRPC,
		IntrSyncs:      restoreMap(ks.IntrSyncs, src.IntrSyncs),
		Dpcs:           restorePtrMap(ks.Dpcs, src.Dpcs),
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

// restoreMap makes dst (allocated when nil) hold exactly src's entries. A
// map that already does is left untouched, which spares the common restore
// from a snapshot of the same boot (the string-keyed registry above all)
// any write.
func restoreMap[K comparable, V comparable](dst, src map[K]V) map[K]V {
	switch {
	case dst == nil:
		dst = make(map[K]V, len(src))
	case len(dst) == 0 && len(src) == 0, maps.Equal(dst, src):
		return dst
	default:
		clear(dst)
	}
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// restorePtrMap makes dst (allocated when nil) hold a copy of each of
// src's entries, reusing the structs dst already points to for the keys
// both hold.
func restorePtrMap[K comparable, V any](dst, src map[K]*V) map[K]*V {
	switch {
	case dst == nil:
		dst = make(map[K]*V, len(src))
	case len(dst) == 0 && len(src) == 0:
		return dst
	default:
		for k, v := range dst {
			if sv, ok := src[k]; ok {
				*v = *sv
			} else {
				delete(dst, k)
			}
		}
	}
	for k, sv := range src {
		if _, ok := dst[k]; !ok {
			c := *sv
			dst[k] = &c
		}
	}
	return dst
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
		if o := ks.Dpcs[d.Obj]; o != nil {
			o.Queued = false
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
	return ks.heapAlloc(Alloc{Size: size, Tag: tag, Kind: kind, Seq: seq, PC: pc})
}

// heapAlloc is HeapAlloc for a prepared record; it fills in a.Addr.
func (ks *KState) heapAlloc(a Alloc) (uint32, error) {
	sz := (a.Size + 15) &^ 15
	if ks.NextHeap+sz > isa.HeapLimit {
		return 0, fmt.Errorf("kernel heap exhausted")
	}
	a.Addr = ks.NextHeap
	ks.NextHeap += sz
	ks.Allocs[a.Addr] = a
	ks.Grant(Region{Lo: a.Addr, Hi: a.Addr + a.Size, Kind: RegionAlloc, Writable: true})
	return a.Addr, nil
}

// HeapFree releases an allocation; it reports false for an address that is
// not a live allocation (double free / bad pointer).
func (ks *KState) HeapFree(addr uint32) bool {
	a, ok := ks.Allocs[addr]
	if !ok {
		return false
	}
	delete(ks.Allocs, addr)
	ks.Revoke(addr, addr+a.Size)
	return true
}

// NewHandle mints an opaque kernel handle.
func (ks *KState) NewHandle() uint32 {
	h := ks.NextHandle
	ks.NextHandle++
	return h
}

// LiveAllocs returns allocations that were never freed, ordered by
// allocation time, for the resource leak checker.
func (ks *KState) LiveAllocs() []Alloc {
	var out []Alloc
	for _, a := range ks.Allocs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// LivePackets counts packets never freed back to their pool.
func (ks *KState) LivePackets() int { return len(ks.Packets) }

// OpenConfigHandles returns configuration handles never closed, ordered by
// open site.
func (ks *KState) OpenConfigHandles() []ConfigHandle {
	var out []ConfigHandle
	for _, h := range ks.ConfigHandles {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}

// HeldSpinlocks returns addresses of spinlocks still held, sorted.
func (ks *KState) HeldSpinlocks() []uint32 {
	var out []uint32
	for addr, sp := range ks.Spinlocks {
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
	for _, p := range ks.Packets {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}
