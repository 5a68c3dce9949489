package kernel

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// fingerprint renders every mutable field of a KState — including the
// contents behind pointer-valued map entries — into one canonical string,
// so a snapshot-then-fork aliasing bug in any field shows up as a
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
	for k, v := range ks.Allocs {
		lines = append(lines, fmt.Sprintf("alloc %#x=%+v", k, v))
	}
	for k, v := range ks.Spinlocks {
		lines = append(lines, fmt.Sprintf("spin %#x=%+v", k, v))
	}
	for k, v := range ks.ConfigHandles {
		lines = append(lines, fmt.Sprintf("cfg %#x=%+v", k, v))
	}
	for k, v := range ks.Timers {
		lines = append(lines, fmt.Sprintf("timer %#x=%+v", k, *v))
	}
	for k, v := range ks.PacketPools {
		lines = append(lines, fmt.Sprintf("ppool %#x=%+v", k, *v))
	}
	for k, v := range ks.BufferPools {
		lines = append(lines, fmt.Sprintf("bpool %#x=%+v", k, *v))
	}
	for k, v := range ks.Packets {
		lines = append(lines, fmt.Sprintf("pkt %#x=%+v", k, v))
	}
	for k, v := range ks.Registry {
		lines = append(lines, fmt.Sprintf("reg %s=%d", k, v))
	}
	for k, v := range ks.IntrSyncs {
		lines = append(lines, fmt.Sprintf("isync %#x=%v", k, v))
	}
	for k, v := range ks.Dpcs {
		lines = append(lines, fmt.Sprintf("dpcobj %#x=%+v", k, *v))
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
// covers each field, nested pointers included.
func populate(r *rand.Rand, ks *KState) {
	ks.IRQL = uint8(r.Intn(3))
	ks.IRQLStack = append(ks.IRQLStack, uint8(r.Intn(3)), uint8(r.Intn(3)))
	for i := 0; i < 3; i++ {
		if _, err := ks.HeapAlloc(uint32(16+r.Intn(64)), "t", "pool", uint64(i), uint32(i)); err != nil {
			panic(err)
		}
	}
	ks.Spinlocks[0x9000] = Spin{Held: true, OldIrql: 1, Inited: true}
	ks.ConfigHandles[ks.NewHandle()] = ConfigHandle{Label: "cfg", PC: 0x100100}
	ks.Timers[0x9100] = &Timer{Initialized: true, FuncPC: 0x100200, Ctx: 7, Queued: r.Intn(2) == 0}
	ks.PacketPools[0x9200] = &Pool{Capacity: 8, Live: 2}
	ks.BufferPools[0x9300] = &Pool{Capacity: 4, Live: 1}
	ks.Packets[0x9400] = PacketInfo{Pool: 0x9200, PC: 0x100300}
	ks.Registry["key"] = r.Uint32()
	ks.IntrSyncs[0x9500] = true
	ks.Miniport = &MiniportChars{InitializePC: 0x100400, SendPC: 0x100408, ISRPC: 0x100410}
	ks.Audio = &AudioChars{InitializePC: 0x100500, PlayPC: 0x100508}
	ks.Storage = &StorageChars{InitializePC: 0x100700, ReadPC: 0x100708, PnpPC: 0x100710}
	ks.Dpcs[0x9600] = &DpcObj{Inited: true, FuncPC: 0x100800, Ctx: 3, Queued: r.Intn(2) == 0}
	ks.ISRRegistered = true
	ks.ISRPC = 0x100410
	ks.PendingDPCs = append(ks.PendingDPCs, DPC{FuncPC: 0x100600, Ctx: 1, Label: "dpc"})
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
	for k, a := range c.Allocs {
		a.Tag = "mutated"
		a.Size = 0xFFFF
		c.Allocs[k] = a
	}
	if _, err := c.HeapAlloc(32, "child", "pool", 99, 0x100999); err != nil {
		panic(err)
	}
	for k, sp := range c.Spinlocks {
		sp.Held = false
		sp.DprOwned = true
		c.Spinlocks[k] = sp
	}
	for _, tm := range c.Timers {
		tm.Queued = !tm.Queued
		tm.FuncPC = 0xDEAD
	}
	for _, p := range c.PacketPools {
		p.Live = 100
		p.Freed = true
	}
	for _, p := range c.BufferPools {
		p.Live = 100
	}
	c.Packets[0xABCD] = PacketInfo{Pool: 1, PC: 2}
	c.Registry["key"] = 0xAAAA
	c.Registry["new"] = 1
	c.IntrSyncs[0x9500] = false
	if c.Miniport != nil {
		c.Miniport.SendPC = 0xBEEF
		c.Audio.PlayPC = 0xBEEF
		c.Storage.ReadPC = 0xBEEF
	}
	for _, o := range c.Dpcs {
		o.Queued = !o.Queued
		o.FuncPC = 0xDEAD
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
	}
}
