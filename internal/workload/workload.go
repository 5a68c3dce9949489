// Package workload is the Device Path Exerciser's workload plan (§4.3): the
// order in which the OS invokes a driver's entry points — load, initialize,
// the class data path, ISR, DPC drain, halt — with the arguments and
// buffers each invocation receives, and the scenario graph (PnP/power
// alternatives) layered on top for classes that register those handlers.
//
// The plan is mode-neutral data. Two walkers consume it: the barriered
// symbolic engine (internal/core) and the concrete fuzz executor
// (internal/fuzz), which trace replay (internal/trace) also runs on. Each
// keeps only what is specific to its mode — forking and interrupt
// siblings, feed-driven edge choice — so an entry added, reordered or
// re-argumented here changes every mode at once, and the injection points
// the buffer builders mint stay in one order everywhere (the concolic
// bridge maps feed words to engine symbols by position).
package workload

import (
	"strconv"

	"repro/internal/binimg"
	"repro/internal/expr"
	"repro/internal/hw"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// adapterHandle is the opaque per-adapter context the kernel hands to every
// class entry point.
const adapterHandle uint32 = 0x7000_0001

// MaxDPCRounds bounds the DPC drain: a DPC body may itself queue another
// DPC, and an unbounded drain would never terminate on such a driver. Eight
// rounds comfortably covers every corpus driver while still converging
// when a callback re-queues itself.
const MaxDPCRounds = 8

// Scenario values selecting the plan shape (see Build).
const (
	ScenarioLinear = "linear"
	ScenarioPnP    = "pnp"
)

// Env is what a walker lends the plan's argument builders: the kernel whose
// FreshSymbol answers each injection point (a fresh symbol in the engine, a
// feed word in the fuzzer, a recorded value in replay) and the annotation
// switch that decides whether entry arguments are injection points at all.
type Env struct {
	K           *kernel.Kernel
	Annotations bool
}

// Node is one workload phase: an entry point the OS invokes.
type Node struct {
	Name string
	// Gate phases end the workload when they do not succeed.
	Gate bool
	// Drain marks the DPC node: it dispatches one pending DPC per visit and
	// is revisited while DPCs stay queued (up to MaxDPCRounds).
	Drain bool
	// succs are the outgoing scenario-graph edges. nil is linear fallthrough
	// to the next node. Edges point forward only, so plan order is a
	// topological order for every walker.
	succs []edge

	pc   func(ks *kernel.KState) uint32
	prep func(s *vm.State)
	args func(env Env, s *vm.State) Args
}

// edge is one scenario-graph edge. A nil when matches every state;
// predicates route alternatives (RemoveDevice only after a surprise
// removal).
type edge struct {
	to   int
	when func(s *vm.State) bool
}

// Applies reports whether the node has something to invoke on s: its entry
// point is registered, or (for the drain) a DPC is pending.
func (n *Node) Applies(s *vm.State) bool {
	ks := kernel.Of(s)
	if n.Drain {
		return len(ks.PendingDPCs) > 0
	}
	return n.pc(ks) != 0
}

// Args are an entry invocation's register arguments, r0 first. Entry
// points take at most four (Kernel.InvokeSym); builders return them by
// value, so preparing an invocation allocates no argument slice.
type Args struct {
	v [4]*expr.Expr
	n int
}

func (a *Args) push(e *expr.Expr) {
	a.v[a.n] = e
	a.n++
}

func argsOf(vals ...*expr.Expr) Args {
	var a Args
	for _, v := range vals {
		a.push(v)
	}
	return a
}

// List returns the arguments as a slice of a's own storage.
func (a *Args) List() []*expr.Expr { return a.v[:a.n] }

// Enter prepares s for the node's invocation — IRQL and device context,
// argument buffers and their injection points, the DPC taken off the queue
// — and returns what to invoke. The caller checked Applies.
func (n *Node) Enter(env Env, s *vm.State) (name string, pc uint32, args Args) {
	ks := kernel.Of(s)
	if n.Drain {
		dpc := ks.TakeDPC()
		ks.IRQL = kernel.DispatchLevel
		ks.InDpc = true
		return "DPC:" + dpc.Label, dpc.FuncPC, argsOf(expr.Const(dpc.Ctx))
	}
	pc = n.pc(ks)
	if n.prep != nil {
		n.prep(s)
	}
	if n.args != nil {
		args = n.args(env, s)
	}
	return n.Name, pc, args
}

// EntryInterrupt reports whether a symbolic walker pairs this node's
// invocation with an interrupt-at-entry sibling. The ISR itself runs with
// the device interrupt masked, and the DPC drain has no sibling either.
func (n *Node) EntryInterrupt() bool { return !n.Drain && n.Name != "ISR" }

// Plan is a driver's workload: node 0 is DriverEntry.
type Plan []Node

// Next appends to dst the nodes a state leaving node i moves on to — every
// edge whose predicate holds, or i+1 under linear fallthrough — and returns
// it. An empty result means s leaves the plan at i.
func (p Plan) Next(dst []int, i int, s *vm.State) []int {
	if p[i].succs == nil {
		if i+1 < len(p) {
			dst = append(dst, i+1)
		}
		return dst
	}
	for _, e := range p[i].succs {
		if e.when == nil || e.when(s) {
			dst = append(dst, e.to)
		}
	}
	return dst
}

// Build returns the image's workload plan. scenario "" picks the class
// default — the PnP/power scenario graph for storage drivers, the linear
// plan otherwise; ScenarioLinear forces the linear plan, ScenarioPnP the
// graph where the class defines one (storage; other classes fall back to
// their linear plan).
func Build(img *binimg.Image, scenario string) Plan {
	plan := Plan{{
		Name: "DriverEntry",
		Gate: true,
		pc:   func(*kernel.KState) uint32 { return img.Entry },
	}}
	switch img.Device.Class {
	case binimg.ClassNetwork:
		mp := func(ks *kernel.KState) *kernel.MiniportChars {
			if ks.Miniport == nil {
				return &kernel.MiniportChars{}
			}
			return ks.Miniport
		}
		plan = append(plan,
			entry("Initialize", true, func(ks *kernel.KState) uint32 { return mp(ks).InitializePC }, handleArgs),
			entry("Send", false, func(ks *kernel.KState) uint32 { return mp(ks).SendPC }, sendArgs),
			// QueryInformation / SetInformation with a fully symbolic OID —
			// the unexpected-OID crashes of Table 2 need exactly this.
			entry("QueryInformation", false, func(ks *kernel.KState) uint32 { return mp(ks).QueryInfoPC },
				infoArgs(kernel.OIDGenSupportedList)),
			entry("SetInformation", false, func(ks *kernel.KState) uint32 { return mp(ks).SetInfoPC },
				infoArgs(kernel.OIDGenCurrentPacketFil)),
			isr(),
			drain(),
			entry("Halt", false, func(ks *kernel.KState) uint32 { return mp(ks).HaltPC }, handleArgs),
		)
	case binimg.ClassAudio:
		au := func(ks *kernel.KState) *kernel.AudioChars {
			if ks.Audio == nil {
				return &kernel.AudioChars{}
			}
			return ks.Audio
		}
		plan = append(plan,
			entry("Initialize", true, func(ks *kernel.KState) uint32 { return au(ks).InitializePC }, handleArgs),
			// Play a small sound: the paper's audio workload (§5.2).
			entry("Play", false, func(ks *kernel.KState) uint32 { return au(ks).PlayPC }, playArgs),
			isr(),
			drain(),
			entry("Stop", false, func(ks *kernel.KState) uint32 { return au(ks).StopPC }, handleArgs),
			entry("Halt", false, func(ks *kernel.KState) uint32 { return au(ks).HaltPC }, handleArgs),
		)
	case binimg.ClassStorage:
		plan = append(plan, storage(scenario == "" || scenario == ScenarioPnP)...)
	}
	return plan
}

// entry builds a plain entry node.
func entry(name string, gate bool, pc func(*kernel.KState) uint32, args func(Env, *vm.State) Args) Node {
	return Node{Name: name, Gate: gate, pc: pc, args: args}
}

// isr delivers a direct device interrupt while otherwise idle.
func isr() Node {
	return Node{
		Name: "ISR",
		pc: func(ks *kernel.KState) uint32 {
			if ks.ISRRegistered {
				return ks.ISRPC
			}
			return 0
		},
		prep: func(s *vm.State) { kernel.Of(s).IRQL = kernel.DeviceLevel },
		args: handleArgs,
	}
}

// drain dispatches queued timer/DPC callbacks at DISPATCH_LEVEL with the
// DPC flag set (where the Intel Pro/100 spinlock bug manifests).
func drain() Node { return Node{Name: "DPC", Drain: true} }

// storage builds the storage-class workload after DriverEntry. Linear, it
// is the straight line Initialize, Read, Write, ISR, DPC, Halt. With pnp it
// is a scenario graph layering the PnP/power alternatives of a real OS onto
// that data path:
//
//	0 DriverEntry ─ 1 Initialize ─ 2 Read ─ 3 Write ─ 4 ISR ─┬─ 5 CancelIo ──────────┐
//	                                                         ├─ 6 Suspend ─ 7 Resume ┤
//	                                                         └─ 8 SurpriseRemoval ───┤
//	                                                  ┌──────────────────────────────┘
//	                                                  9 DPC ─┬─(removed)─ 10 RemoveDevice ─ 11 Halt
//	                                                         └─(else)──────────────────────── Halt
//
// CancelIo's interrupt-at-entry sibling is the IRP-cancellation-vs-ISR
// race; SurpriseRemoval flips the device to removed (all further hardware
// reads return all-ones) BEFORE invoking the PnP handler, exactly as a
// yanked card behaves; the DPC drain after each alternative is where
// completion callbacks touch whatever the alternative left behind.
func storage(pnp bool) []Node {
	sc := func(ks *kernel.KState) *kernel.StorageChars {
		if ks.Storage == nil {
			return &kernel.StorageChars{}
		}
		return ks.Storage
	}
	halt := entry("Halt", false, func(ks *kernel.KState) uint32 { return sc(ks).HaltPC }, handleArgs)
	nodes := []Node{
		entry("Initialize", true, func(ks *kernel.KState) uint32 { return sc(ks).InitializePC }, handleArgs),
		entry("Read", false, func(ks *kernel.KState) uint32 { return sc(ks).ReadPC }, blockArgs),
		entry("Write", false, func(ks *kernel.KState) uint32 { return sc(ks).WritePC }, blockArgs),
		isr(),
	}
	if !pnp {
		return append(nodes, drain(), halt)
	}
	pnpPC := func(ks *kernel.KState) uint32 { return sc(ks).PnpPC }
	powerPC := func(ks *kernel.KState) uint32 { return sc(ks).PowerPC }
	removal := entry("SurpriseRemoval", false, pnpPC, constArgs(kernel.IrpMnSurpriseRemoval))
	removal.prep = func(s *vm.State) {
		// The card is gone before the driver hears about it.
		hw.Of(s).Removed = true
		kernel.Of(s).Removed = true
	}
	nodes = append(nodes,
		entry("CancelIo", false, func(ks *kernel.KState) uint32 { return sc(ks).CancelPC }, handleArgs), // 5
		entry("Suspend", false, powerPC, constArgs(kernel.IrpMnSetPower, kernel.PowerDeviceD3)),         // 6
		entry("Resume", false, powerPC, constArgs(kernel.IrpMnSetPower, kernel.PowerDeviceD0)),          // 7
		removal, // 8
		drain(), // 9
		entry("RemoveDevice", false, pnpPC, constArgs(kernel.IrpMnRemoveDevice)), // 10
		halt, // 11
	)
	removed := func(s *vm.State) bool { return kernel.Of(s).Removed }
	notRemoved := func(s *vm.State) bool { return !kernel.Of(s).Removed }
	// Indices below are plan indices (this slice is appended after the
	// DriverEntry node 0, so slice index k is plan index k+1).
	nodes[3].succs = []edge{{to: 5}, {to: 6}, {to: 8}} // ISR → alternatives
	nodes[4].succs = []edge{{to: 9}}                   // CancelIo → DPC
	nodes[5].succs = []edge{{to: 7}}                   // Suspend → Resume
	nodes[6].succs = []edge{{to: 9}}                   // Resume → DPC
	nodes[7].succs = []edge{{to: 9}}                   // SurpriseRemoval → DPC
	nodes[8].succs = []edge{{to: 10, when: removed}, {to: 11, when: notRemoved}}
	nodes[9].succs = []edge{{to: 11}} // RemoveDevice → Halt
	return nodes
}

func handleArgs(Env, *vm.State) Args {
	return argsOf(expr.Const(adapterHandle))
}

// constArgs passes the adapter handle followed by fixed values (PnP minor
// codes, power states).
func constArgs(vals ...uint32) func(Env, *vm.State) Args {
	return func(Env, *vm.State) Args {
		args := argsOf(expr.Const(adapterHandle))
		for _, v := range vals {
			args.push(expr.Const(v))
		}
		return args
	}
}

func sendArgs(env Env, s *vm.State) Args {
	return argsOf(expr.Const(adapterHandle), expr.Const(packet(env, s)))
}

// infoArgs builds Query/SetInformation arguments. Symbolic entry arguments
// are concrete-to-symbolic conversion hints (§3.4): in default,
// annotation-free mode "driver entry point arguments are not touched" and a
// representative concrete OID is used instead.
func infoArgs(concreteOID uint32) func(Env, *vm.State) Args {
	return func(env Env, s *vm.State) Args {
		oid := expr.Const(concreteOID)
		if env.Annotations {
			oid = env.K.FreshSymbol(s, "oid", expr.OriginArgument)
		}
		buf := kernelBuffer(s, 64, "infobuf", "param")
		return argsOf(expr.Const(adapterHandle), oid, expr.Const(buf), expr.Const(64))
	}
}

func blockArgs(env Env, s *vm.State) Args {
	return argsOf(expr.Const(adapterHandle), expr.Const(blockBuffer(env, s)), expr.Const(0x80))
}

func playArgs(env Env, s *vm.State) Args {
	return argsOf(expr.Const(adapterHandle), expr.Const(audioBuffer(env, s)), expr.Const(256))
}

// kernelBuffer allocates a kernel-owned buffer (the driver must not free
// it), or returns 0 when the heap is exhausted.
func kernelBuffer(s *vm.State, size uint32, tag, kind string) uint32 {
	ks := kernel.Of(s)
	addr, err := ks.HeapAlloc(size, tag, kind, s.ICount, 0)
	if err != nil {
		return 0
	}
	delete(ks.Allocs, addr)
	return addr
}

// packet builds the one-packet Send workload: a header { dataPtr, length }
// plus a payload whose leading 16 bytes are injection points. The length is
// an injection point too, constrained to the buffer size when symbolic —
// the soundness requirement §7 contrasts with RevNIC ("constrained not to
// be greater than the original, to avoid buffer overflows"); the fuzzer
// clamps its feed word to the same range.
func packet(env Env, s *vm.State) uint32 {
	const payload = 64
	addr := kernelBuffer(s, 8+payload, "sendpkt", "packet")
	if addr == 0 {
		return 0
	}
	data := addr + 8
	s.Mem.Write(addr, 4, expr.Const(data))
	if env.Annotations {
		length := env.K.FreshSymbol(s, "packet_len", expr.OriginPacket)
		if !length.IsConst() {
			s.AddConstraint(expr.UGe(length, expr.Const(14)))
			s.AddConstraint(expr.ULe(length, expr.Const(payload)))
		}
		s.Mem.Write(addr+4, 4, length)
	} else {
		s.Mem.Write(addr+4, 4, expr.Const(42))
	}
	injectBytes(env, s, data, packetByteNames, 0x40, 1)
	for i := uint32(16); i < payload; i++ {
		s.Mem.Write(data+i, 1, expr.Const(0))
	}
	return addr
}

// blockBuffer allocates a 128-byte block-I/O buffer whose leading 8 bytes
// are injection points.
func blockBuffer(env Env, s *vm.State) uint32 {
	addr := kernelBuffer(s, 128, "blkbuf", "param")
	if addr != 0 {
		injectBytes(env, s, addr, blkByteNames, 0, 9)
	}
	return addr
}

// audioBuffer allocates a 256-byte playback buffer whose leading 8 samples
// are injection points.
func audioBuffer(env Env, s *vm.State) uint32 {
	addr := kernelBuffer(s, 256, "audiobuf", "param")
	if addr != 0 {
		injectBytes(env, s, addr, sampleNames, 0, 17)
	}
	return addr
}

// Symbol names of the injected buffer bytes, built once: injectBytes runs
// on every data-path entry, and the names are the same every time.
var (
	packetByteNames = byteNames("packet_byte_", 16)
	blkByteNames    = byteNames("blk_byte_", 8)
	sampleNames     = byteNames("sample_", 8)
)

// byteNames returns prefix0 … prefix(n-1).
func byteNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

// injectBytes fills len(names) bytes at addr: one injection point each,
// named names[i], with annotations on, else the fixed pattern base+i*step.
func injectBytes(env Env, s *vm.State, addr uint32, names []string, base, step uint32) {
	for i := uint32(0); i < uint32(len(names)); i++ {
		if env.Annotations {
			s.Mem.Write(addr+i, 1, env.K.FreshSymbol(s, names[i], expr.OriginPacket))
		} else {
			s.Mem.Write(addr+i, 1, expr.Const((base+i*step)&0xFF))
		}
	}
}

// Registry returns the stock simulated registry hive every mode boots
// with, overrides applied.
func Registry(overrides map[string]uint32) map[string]uint32 {
	reg := map[string]uint32{
		"MaximumMulticastList": 4,
		"NetworkAddress":       0,
		"Speed":                100,
		"Duplex":               1,
		"TxRingSize":           8,
		"RxRingSize":           8,
		"SampleRate":           44100,
		"BufferMs":             10,
	}
	for k, v := range overrides {
		reg[k] = v
	}
	return reg
}

// Boot builds the state in which the OS just loaded the driver: image
// mapped and granted, kernel booted, registry populated, device attached.
func Boot(m *vm.Machine, img *binimg.Image, registry map[string]uint32) *vm.State {
	s := m.NewRootState()
	ks := kernel.NewKState()
	ks.Grant(kernel.Region{
		Lo: isa.ImageBase, Hi: img.LimitVA(),
		Kind: kernel.RegionImage, Writable: true,
	})
	for k, v := range registry {
		ks.Registry[k] = v
	}
	s.Kernel = ks
	s.HW = &hw.DeviceState{}
	return s
}
