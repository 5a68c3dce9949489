package kernel

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/isa"
)

// fingerprint renders every mutable field of a KState into one canonical
// string, so a snapshot-then-fork aliasing bug in any field shows up as a
// fingerprint change of the parent after the child is mutated.
func fingerprint(ks *KState) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "irql=%d stack=%v heap=%#x handle=%#x isr=%v/%#x dpc=%v crash=%v/%#x/%q indpc=%v aff=%d pow=%d rm=%v intr=%d/%v seed=%d\n",
		ks.IRQL, ks.IRQLStack, ks.NextHeap, ks.NextHandle, ks.ISRRegistered, ks.ISRPC,
		ks.PendingDPCs, ks.Crashed, ks.CrashCode, ks.CrashMsg, ks.InDpc, ks.AllocFailForks,
		ks.PowerState, ks.Removed, ks.Interrupts, ks.InjectPending, ks.SeedCursor)
	for _, r := range ks.Regions {
		fmt.Fprintf(&sb, "region %+v\n", r)
	}
	var lines []string
	for k, v := range ks.allocs.m {
		lines = append(lines, fmt.Sprintf("alloc %#x=%+v", k, v))
	}
	for k, v := range ks.spinlocks.m {
		lines = append(lines, fmt.Sprintf("spin %#x=%+v", k, v))
	}
	for k, v := range ks.configHandles.m {
		lines = append(lines, fmt.Sprintf("cfg %#x=%+v", k, v))
	}
	for k, v := range ks.timers.m {
		lines = append(lines, fmt.Sprintf("timer %#x=%+v", k, v))
	}
	for k, v := range ks.packetPools.m {
		lines = append(lines, fmt.Sprintf("ppool %#x=%+v", k, v))
	}
	for k, v := range ks.bufferPools.m {
		lines = append(lines, fmt.Sprintf("bpool %#x=%+v", k, v))
	}
	for k, v := range ks.packets.m {
		lines = append(lines, fmt.Sprintf("pkt %#x=%+v", k, v))
	}
	for k, v := range ks.registry.m {
		lines = append(lines, fmt.Sprintf("reg %s=%d", k, v))
	}
	for k, v := range ks.intrSyncs.m {
		lines = append(lines, fmt.Sprintf("isync %#x=%v", k, v))
	}
	for k, v := range ks.dpcs.m {
		lines = append(lines, fmt.Sprintf("dpcobj %#x=%+v", k, v))
	}
	sort.Strings(lines)
	sb.WriteString(strings.Join(lines, "\n"))
	if ks.Miniport != nil {
		fmt.Fprintf(&sb, "\nminiport %+v", *ks.Miniport)
	}
	if ks.Audio != nil {
		fmt.Fprintf(&sb, "\naudio %+v", *ks.Audio)
	}
	if ks.Storage != nil {
		fmt.Fprintf(&sb, "\nstorage %+v", *ks.Storage)
	}
	return sb.String()
}

// populate fills every KState structure with data so the aliasing check
// covers each field.
func populate(r *rand.Rand, ks *KState) {
	ks.IRQL = uint8(r.Intn(3))
	ks.IRQLStack = append(ks.IRQLStack, uint8(r.Intn(3)), uint8(r.Intn(3)))
	for i := 0; i < 3; i++ {
		if _, err := ks.HeapAlloc(uint32(16+r.Intn(64)), "t", "pool", uint64(i), uint32(i)); err != nil {
			panic(err)
		}
	}
	ks.SetSpinlock(0x9000, Spin{Held: true, OldIrql: 1, Inited: true})
	ks.OpenConfig("cfg", 0x100100)
	ks.timers.set(ks.key, 0x9100, Timer{Initialized: true, FuncPC: 0x100200, Ctx: 7, Queued: r.Intn(2) == 0})
	ks.packetPools.set(ks.key, 0x9200, Pool{Capacity: 8, Live: 2})
	ks.bufferPools.set(ks.key, 0x9300, Pool{Capacity: 4, Live: 1})
	ks.packets.set(ks.key, 0x9400, PacketInfo{Pool: 0x9200, PC: 0x100300})
	ks.SetRegistry("key", r.Uint32())
	ks.intrSyncs.set(ks.key, 0x9500, true)
	ks.Miniport = &MiniportChars{InitializePC: 0x100400, SendPC: 0x100408, ISRPC: 0x100410}
	ks.Audio = &AudioChars{InitializePC: 0x100500, PlayPC: 0x100508}
	ks.Storage = &StorageChars{InitializePC: 0x100700, ReadPC: 0x100708, PnpPC: 0x100710}
	ks.dpcs.set(ks.key, 0x9600, DpcObj{Inited: true, FuncPC: 0x100800, Ctx: 3, Queued: r.Intn(2) == 0})
	ks.ISRRegistered = true
	ks.ISRPC = 0x100410
	ks.PendingDPCs = append(ks.PendingDPCs, DPC{FuncPC: 0x100600, Ctx: 1, Label: "dpc", Obj: 0x9600})
	ks.PowerState = PowerDeviceD0
	ks.Removed = r.Intn(2) == 0
	ks.Interrupts = 1 + r.Intn(3)
	ks.InjectPending = r.Intn(2) == 0
	ks.SeedCursor = uint64(r.Intn(50))
}

// mutateChild rewrites every mutable structure of the fork — the mutations
// a snapshot-then-fork execution pattern performs on resumed children.
func mutateChild(c *KState) {
	c.IRQL = 2
	c.IRQLStack = append(c.IRQLStack, 9)
	if len(c.IRQLStack) > 1 {
		c.IRQLStack[0] = 7
	}
	for k, a := range c.allocs.m {
		a.Tag = "mutated"
		a.Size = 0xFFFF
		c.allocs.set(c.key, k, a)
	}
	if _, err := c.HeapAlloc(32, "child", "pool", 99, 0x100999); err != nil {
		panic(err)
	}
	for k, sp := range c.spinlocks.m {
		sp.Held = false
		sp.DprOwned = true
		c.SetSpinlock(k, sp)
	}
	for k, tm := range c.timers.m {
		tm.Queued = !tm.Queued
		tm.FuncPC = 0xDEAD
		c.timers.set(c.key, k, tm)
	}
	for k, p := range c.packetPools.m {
		p.Live = 100
		c.packetPools.set(c.key, k, p)
	}
	for k, p := range c.bufferPools.m {
		p.Live = 100
		c.bufferPools.set(c.key, k, p)
	}
	c.packets.set(c.key, 0xABCD, PacketInfo{Pool: 1, PC: 2})
	c.SetRegistry("key", 0xAAAA)
	c.SetRegistry("new", 1)
	c.intrSyncs.set(c.key, 0x9500, false)
	if c.Miniport != nil {
		c.Miniport.SendPC = 0xBEEF
		c.Audio.PlayPC = 0xBEEF
		c.Storage.ReadPC = 0xBEEF
	}
	for k, o := range c.dpcs.m {
		o.Queued = !o.Queued
		o.FuncPC = 0xDEAD
		c.dpcs.set(c.key, k, o)
	}
	c.PowerState = PowerDeviceD3
	c.Removed = !c.Removed
	c.PendingDPCs = append(c.PendingDPCs, DPC{FuncPC: 0xF00D})
	if len(c.PendingDPCs) > 1 {
		c.PendingDPCs[0].Label = "mutated"
	}
	if len(c.Regions) > 0 {
		c.Regions[0].Writable = !c.Regions[0].Writable
	}
	c.Crashed = true
	c.CrashMsg = "child only"
	c.InDpc = true
	c.AllocFailForks = 42
	c.Interrupts += 10
	c.InjectPending = !c.InjectPending
	c.SeedCursor += 100
}

// writeMethods is one case per way a KState's maps are written: set and
// del on each map, and each exported method that writes one. Every case
// changes a populated state (TestKStateForkWritesCopy checks that too).
var writeMethods = []struct {
	name  string
	write func(ks *KState)
}{
	{"allocs.set", func(ks *KState) { ks.allocs.set(ks.key, isa.HeapBase, Alloc{Addr: isa.HeapBase, Tag: "w"}) }},
	{"allocs.del", func(ks *KState) { ks.allocs.del(ks.key, isa.HeapBase) }},
	{"spinlocks.set", func(ks *KState) { ks.spinlocks.set(ks.key, 0x9000, Spin{}) }},
	{"spinlocks.del", func(ks *KState) { ks.spinlocks.del(ks.key, 0x9000) }},
	{"configHandles.set", func(ks *KState) { ks.configHandles.set(ks.key, 0x8000_0001, ConfigHandle{Label: "w"}) }},
	{"configHandles.del", func(ks *KState) { ks.configHandles.del(ks.key, 0x8000_0001) }},
	{"timers.set", func(ks *KState) { ks.timers.set(ks.key, 0x9100, Timer{FuncPC: 0xDEAD}) }},
	{"timers.del", func(ks *KState) { ks.timers.del(ks.key, 0x9100) }},
	{"packetPools.set", func(ks *KState) { ks.packetPools.set(ks.key, 0x9200, Pool{Live: 100}) }},
	{"packetPools.del", func(ks *KState) { ks.packetPools.del(ks.key, 0x9200) }},
	{"bufferPools.set", func(ks *KState) { ks.bufferPools.set(ks.key, 0x9300, Pool{Live: 100}) }},
	{"bufferPools.del", func(ks *KState) { ks.bufferPools.del(ks.key, 0x9300) }},
	{"packets.set", func(ks *KState) { ks.packets.set(ks.key, 0x9400, PacketInfo{PC: 0xDEAD}) }},
	{"packets.del", func(ks *KState) { ks.packets.del(ks.key, 0x9400) }},
	{"registry.set", func(ks *KState) { ks.registry.set(ks.key, "key", 0xDEAD) }},
	{"registry.del", func(ks *KState) { ks.registry.del(ks.key, "key") }},
	{"intrSyncs.set", func(ks *KState) { ks.intrSyncs.set(ks.key, 0x9500, false) }},
	{"intrSyncs.del", func(ks *KState) { ks.intrSyncs.del(ks.key, 0x9500) }},
	{"dpcs.set", func(ks *KState) { ks.dpcs.set(ks.key, 0x9600, DpcObj{FuncPC: 0xDEAD}) }},
	{"dpcs.del", func(ks *KState) { ks.dpcs.del(ks.key, 0x9600) }},
	{"HeapAlloc", func(ks *KState) { ks.HeapAlloc(16, "w", "pool", 7, 0x100900) }},
	{"HeapAllocRecord", func(ks *KState) { ks.HeapAllocRecord(Alloc{Size: 16, PoolTag: 0x77}) }},
	{"HeapFree", func(ks *KState) { ks.HeapFree(isa.HeapBase) }},
	{"OpenConfig", func(ks *KState) { ks.OpenConfig("w", 0x100900) }},
	{"SetSpinlock", func(ks *KState) { ks.SetSpinlock(0x9000, Spin{DprOwned: true}) }},
	{"SetRegistry", func(ks *KState) { ks.SetRegistry("key", 0xDEAD) }},
	{"FreePacket", func(ks *KState) { ks.FreePacket(0x9400) }},
	{"DropIntrSync", func(ks *KState) { ks.DropIntrSync(0x9500) }},
	{"TakeDPC", func(ks *KState) { ks.TakeDPC() }},
}

// TestKStateForkWritesCopy: a fork shares the kernel maps copy-on-write, so
// after a Fork one write, through any write method, on either side must
// leave the other side's fingerprint unchanged, while the written side
// changes. A write that skips the copy shows up here as the other side
// changing too.
func TestKStateForkWritesCopy(t *testing.T) {
	for _, tc := range writeMethods {
		for _, side := range []string{"child", "parent"} {
			parent := NewKState()
			populate(rand.New(rand.NewSource(1)), parent)
			// Queued, so TakeDPC's dispatch of it writes the object.
			parent.dpcs.set(parent.key, 0x9600, DpcObj{Inited: true, FuncPC: 0x100800, Queued: true})
			child := parent.Fork().(*KState)
			written, other := child, parent
			if side == "parent" {
				written, other = parent, child
			}
			before, otherBefore := fingerprint(written), fingerprint(other)
			tc.write(written)
			if fingerprint(written) == before {
				t.Errorf("%s on the %s: the write changed nothing", tc.name, side)
			}
			if got := fingerprint(other); got != otherBefore {
				t.Errorf("%s on the %s changed the other side:\nbefore:\n%s\nafter:\n%s", tc.name, side, otherBefore, got)
			}
		}
	}
}

// TestKStateForkFrozenConcurrently: a frozen snapshot's kernel state (a
// fork nothing writes any more) is forked by several fabric executors at
// once. Forking it must not write it (run under -race), and each fork's
// writes stay its own.
func TestKStateForkFrozenConcurrently(t *testing.T) {
	run := NewKState()
	populate(rand.New(rand.NewSource(2)), run)
	snap := run.Fork().(*KState)
	before := fingerprint(snap)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tc := range writeMethods {
				tc.write(snap.Fork().(*KState))
			}
		}()
	}
	wg.Wait()
	if got := fingerprint(snap); got != before {
		t.Fatalf("concurrent forks changed the snapshot:\nbefore:\n%s\nafter:\n%s", before, got)
	}
}

// TestKStateForkNoAliasing is the snapshot-then-fork aliasing audit for the
// kernel half of a state snapshot: fork a fully populated KState, rewrite
// every mutable field of the child — timers, the DPC queue, pool and alloc
// records behind map pointers, the registry, the characteristics tables —
// and assert the parent is bit-for-bit untouched. A shallow-copied field
// would let one resumed execution corrupt the frozen snapshot every later
// resume replays from.
func TestKStateForkNoAliasing(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		parent := NewKState()
		populate(r, parent)
		before := fingerprint(parent)

		child := parent.Fork().(*KState)
		if fingerprint(child) != before {
			t.Fatal("fork is not a faithful copy")
		}
		mutateChild(child)
		if got := fingerprint(parent); got != before {
			t.Fatalf("seed %d: mutating the fork changed the parent:\nbefore:\n%s\nafter:\n%s", seed, before, got)
		}
		// And the other direction: mutating the parent must not leak into a
		// second, untouched fork.
		sibling := parent.Fork().(*KState)
		sibBefore := fingerprint(sibling)
		mutateChild(parent)
		if fingerprint(sibling) != sibBefore {
			t.Fatalf("seed %d: mutating the parent changed an earlier fork", seed)
		}
	}
}

// TestKStateRestoreFromNoAliasing is the audit for an in-place restore
// (RestoreFrom, which warm fuzz executions use instead of Fork): a KState
// holding unrelated content — other allocations, locks, timers, registry
// keys and characteristics tables — restored from a populated source must
// fingerprint exactly as the source. Mutating either side afterwards must
// leave the other's fingerprint unchanged: they share no map, map value,
// slice backing array or characteristics struct.
func TestKStateRestoreFromNoAliasing(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := NewKState()
		populate(r, src)
		before := fingerprint(src)

		dst := NewKState()
		populate(rand.New(rand.NewSource(seed+1000)), dst)
		mutateChild(dst)
		if seed%2 == 1 {
			// A source without characteristics tables must clear the
			// restored state's.
			src.Miniport, src.Audio, src.Storage = nil, nil, nil
			before = fingerprint(src)
		}
		dst.RestoreFrom(src)
		if got := fingerprint(dst); got != before {
			t.Fatalf("seed %d: restore is not a faithful copy:\nsource:\n%s\nrestored:\n%s", seed, before, got)
		}
		mutateChild(dst)
		if got := fingerprint(src); got != before {
			t.Fatalf("seed %d: mutating the restored state changed the source:\nbefore:\n%s\nafter:\n%s", seed, before, got)
		}

		dst.RestoreFrom(src)
		restored := fingerprint(dst)
		mutateChild(src)
		if got := fingerprint(dst); got != restored {
			t.Fatalf("seed %d: mutating the source changed the restored state:\nbefore:\n%s\nafter:\n%s", seed, restored, got)
		}

		// A restore never writes into a map the restored state shares: a
		// fork taken just before it keeps its fingerprint.
		sib := dst.Fork().(*KState)
		dst.RestoreFrom(src)
		if got := fingerprint(sib); got != restored {
			t.Fatalf("seed %d: restoring a state changed its fork:\nbefore:\n%s\nafter:\n%s", seed, restored, got)
		}
		if fingerprint(dst) != fingerprint(src) {
			t.Fatalf("seed %d: restore of a forked state is not a faithful copy", seed)
		}
	}
}
