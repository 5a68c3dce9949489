// Package kernel implements the simulated operating system the drivers run
// against: an NDIS/WDM-flavoured kernel API, Plug-and-Play driver loading,
// IRQL and spinlock semantics, timers and DPCs, a registry, packet pools,
// and BugCheck ("blue screen") interception.
//
// In the paper, DDT runs the real Windows kernel concretely inside QEMU and
// only the driver symbolically. Here the kernel is concrete Go code invoked
// when driver execution CALLs into the import trap window; it maintains
// genuine per-path concrete state (KState, forked on every path split), so
// the symbolic/concrete boundary mechanics of §3.2 — argument
// concretization, state conversion, crash interception — are exercised the
// same way.
package kernel

import (
	"fmt"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Handler implements one kernel API. It may modify s, return forked
// alternative states, or raise a Fault (which fails the path as a bug).
type Handler func(k *Kernel, s *vm.State) ([]*vm.State, error)

// Annotation hooks run around an API handler, in the spirit of §3.4: they
// inject symbolic values (concrete-to-symbolic hints), verify argument
// constraints (symbolic-to-concrete hints), and fork alternative API
// outcomes. OnReturn runs after the handler with the return value in R0.
type Annotation struct {
	API      string
	OnCall   func(ctx *AnnotCtx)
	OnReturn func(ctx *AnnotCtx)
}

// AnnotCtx gives annotation code controlled access to the execution state —
// the analogue of the paper's LLVM annotation API (ddt_new_symb_int,
// ddt_discard_state, ARG(cpu, i)).
type AnnotCtx struct {
	K *Kernel
	S *vm.State
	// API is the name of the kernel function being annotated.
	API string
	// CallArgs snapshots r0-r3 at the moment of the call, so OnReturn
	// annotations can still see arguments after the handler overwrote R0.
	CallArgs [4]*expr.Expr
	// Extra accumulates forked states created by the annotation.
	Extra []*vm.State
	// discarded marks the current state as to-be-dropped.
	discarded bool
	// bug carries a fault raised by a rule-checking annotation.
	bug error
}

// Arg returns the i-th integer argument of the current API call as
// captured at call time (r0-r3, then the stack).
func (c *AnnotCtx) Arg(i int) *expr.Expr {
	if i < 4 {
		return c.CallArgs[i]
	}
	return c.K.Arg(c.S, i)
}

// ArgConcrete concretizes the i-th argument.
func (c *AnnotCtx) ArgConcrete(i int) uint32 {
	a := c.Arg(i)
	if a.IsConst() {
		return a.ConstVal()
	}
	v, err := c.K.M.Concretize(c.S, a, fmt.Sprintf("arg%d", i))
	if err != nil {
		c.bug = err
		return 0
	}
	return v
}

// Ret returns the current return value (R0).
func (c *AnnotCtx) Ret() *expr.Expr { return c.S.Reg(isa.R0) }

// SetRet overrides the return value.
func (c *AnnotCtx) SetRet(e *expr.Expr) { c.S.SetReg(isa.R0, e) }

// NewSymbol creates a fresh symbolic value recorded with the given origin.
func (c *AnnotCtx) NewSymbol(name string, origin expr.Origin) *expr.Expr {
	return c.K.FreshSymbol(c.S, name, origin)
}

// Fork clones the current state; the clone is queued for exploration.
// Mutations applied to the returned state happen on the alternative path.
// Both sides record the decision as an EvAltFork event (Forked on the
// alternative's side), so a path's trace carries every annotation decision
// the fuzz executor reads from a feed's fork stream (fuzz.FromBug).
//
// Under a ForkPolicy (the fuzz executor), Fork instead either redirects
// the mutations to the live state (the feed takes the alternative) or
// returns nil (the feed keeps the primary outcome). Callers must handle
// nil, as they already do when a fork budget is spent. Returning nil rather
// than a throwaway clone leaves the live state's memory overlay, the state
// ID sequence and the context's fork count exactly as they were.
func (c *AnnotCtx) Fork() *vm.State {
	if c.K.ForkPolicy != nil {
		if c.K.ForkPolicy(c.S, c.API) {
			return c.S
		}
		return nil
	}
	ns := c.K.M.ForkState(c.S)
	ev := vm.Event{Kind: vm.EvAltFork, Seq: ns.ICount, PC: ns.PC, Name: c.API}
	c.S.Trace.Append(ev)
	ev.Forked = true
	ns.Trace.Append(ev)
	c.Extra = append(c.Extra, ns)
	return ns
}

// Discard drops the current path (the paper's ddt_discard_state).
func (c *AnnotCtx) Discard() { c.discarded = true }

// RaiseBug fails the path with a checker-style fault.
func (c *AnnotCtx) RaiseBug(class, format string, args ...any) {
	c.bug = vm.Faultf(class, c.S.PC, format, args...)
}

// ReadMem reads size bytes at addr from the guest as an expression.
func (c *AnnotCtx) ReadMem(addr, size uint32) *expr.Expr { return c.S.Mem.Read(addr, size) }

// WriteMem writes an expression into guest memory.
func (c *AnnotCtx) WriteMem(addr, size uint32, v *expr.Expr) { c.S.Mem.Write(addr, size, v) }

// Kernel is the per-session simulated OS. It is shared across all execution
// states of a run; per-path state lives in KState.
type Kernel struct {
	M   *vm.Machine
	api map[string]Handler

	// Annotations by API name. Nil entries are fine; DDT's default mode
	// (§3.4, "no annotations") still works, with reduced coverage.
	Annotations map[string][]Annotation

	// slotNames caches import-slot -> API name for the loaded image.
	slotNames []string

	// Symbol sequence counter for naming. Atomic: parallel workers mint
	// symbols concurrently (a single-worker run sees the exact sequential
	// numbering).
	symSeq atomic.Uint64

	// VerifierChecks enables the in-guest Driver Verifier-style checks
	// (IRQL rules, spinlock ownership, pool sanity). This is the knob the
	// Driver Verifier baseline reuses.
	VerifierChecks bool

	// OnBoundary is invoked at each kernel/driver boundary crossing (before
	// and after every API call). The engine uses it to inject symbolic
	// interrupts (§3.3: one injection point per equivalence class of
	// arrival times). Returned states are queued for exploration.
	OnBoundary func(s *vm.State, api string, when string) []*vm.State

	// ForkPolicy, when set (the fuzz executor), decides annotation forks
	// deterministically instead of exploring both outcomes: true means
	// "take the alternative on the live state".
	ForkPolicy func(s *vm.State, api string) bool

	// SymbolPolicy, when set (the fuzz executor), supplies the value for
	// every would-be symbolic injection instead of minting a fresh symbol —
	// this is how a feed's words, and through fuzz.FromBug a trace's solved
	// concrete inputs, drive a concrete execution.
	SymbolPolicy func(s *vm.State, name string, origin expr.Origin) *expr.Expr

	// SymbolSeed, when set (concolic bridging), biases exploration toward a
	// concrete input prefix: the idx-th symbol minted on a path is still a
	// genuine symbol, but when the seed answers for that index an equality
	// constraint pins it to the seeded value. Symbolic execution then forks
	// only past the seeded prefix — the standard way to lift a fuzzer feed
	// into a symbolic boot state without losing soundness.
	SymbolSeed func(idx uint64, name string, origin expr.Origin) (uint32, bool)
}

// New attaches a kernel to a machine.
func New(m *vm.Machine) *Kernel {
	k := &Kernel{
		M:              m,
		api:            make(map[string]Handler),
		Annotations:    make(map[string][]Annotation),
		VerifierChecks: true,
	}
	registerNdisAPI(k)
	registerWdmAPI(k)
	k.slotNames = append([]string(nil), m.Img.Imports...)
	m.APICall = k.dispatch
	m.OnInterruptReturn = k.interruptReturn
	return k
}

// Register installs (or replaces) an API handler.
func (k *Kernel) Register(name string, h Handler) { k.api[name] = h }

// Has reports whether the kernel implements the named API.
func (k *Kernel) Has(name string) bool { _, ok := k.api[name]; return ok }

// Annotate adds an annotation for an API.
func (k *Kernel) Annotate(a Annotation) {
	k.Annotations[a.API] = append(k.Annotations[a.API], a)
}

// FreshSymbol mints a named symbolic value with provenance and logs its
// creation in the path trace. Under a SymbolPolicy (the fuzz executor) it
// instead returns the policy's concrete value.
func (k *Kernel) FreshSymbol(s *vm.State, name string, origin expr.Origin) *expr.Expr {
	if k.SymbolPolicy != nil {
		return k.SymbolPolicy(s, name, origin)
	}
	seq := k.symSeq.Add(1)
	e := k.M.Syms.Fresh(fmt.Sprintf("%s#%d", name, seq), origin, s.PC, s.ICount)
	s.Trace.Append(vm.Event{Kind: vm.EvNewSym, Seq: s.ICount, PC: s.PC, Sym: e.Sym, Name: name})
	if k.SymbolSeed != nil {
		ks := Of(s)
		idx := ks.SeedCursor
		ks.SeedCursor++
		if v, ok := k.SymbolSeed(idx, name, origin); ok {
			s.AddConstraint(expr.Eq(e, expr.Const(v)))
		}
	}
	return e
}

// Arg returns the i-th argument under the d32 calling convention:
// r0-r3, then 4-byte stack slots.
func (k *Kernel) Arg(s *vm.State, i int) *expr.Expr {
	if i < 4 {
		return s.Reg(uint8(i))
	}
	sp, ok := s.RegConcrete(isa.SP)
	if !ok {
		return expr.Const(0)
	}
	return s.Mem.Read(sp+uint32(4*(i-4)), 4)
}

// ArgConcrete concretizes the i-th argument, pinning it in the path
// constraints (the on-demand concretization of §3.2). A concrete argument
// is returned as it is, so the concretization's name is only built for a
// symbolic one.
func (k *Kernel) ArgConcrete(s *vm.State, i int) (uint32, error) {
	if v, ok := argWord(s, i); ok {
		return v, nil
	}
	return k.M.Concretize(s, k.Arg(s, i), fmt.Sprintf("arg%d", i))
}

// argWord returns the i-th argument when it is concrete, reading the
// register word or stack bytes without building an expression.
func argWord(s *vm.State, i int) (uint32, bool) {
	if i < 4 {
		return s.RegConcrete(uint8(i))
	}
	sp, ok := s.RegConcrete(isa.SP)
	if !ok {
		return 0, true // Arg's Const(0)
	}
	return s.Mem.ReadConcrete(sp+uint32(4*(i-4)), 4)
}

// SetRet stores a concrete return value in R0.
func (k *Kernel) SetRet(s *vm.State, v uint32) { s.SetRegConcrete(isa.R0, v) }

// dispatch is installed as the machine's APICall hook.
func (k *Kernel) dispatch(s *vm.State, slot int) ([]*vm.State, error) {
	if slot >= len(k.slotNames) {
		return nil, vm.Faultf("api", s.PC, "call to unknown import slot %d", slot)
	}
	name := k.slotNames[slot]
	h, ok := k.api[name]
	if !ok {
		return nil, vm.Faultf("api", s.PC, "driver imports unimplemented kernel API %q", name)
	}

	var extra []*vm.State
	var callArgs [4]*expr.Expr // boxed only for the annotations that read them
	if len(k.Annotations[name]) > 0 {
		for i := range callArgs {
			callArgs[i] = s.Reg(uint8(i))
		}
	}

	if k.OnBoundary != nil {
		extra = append(extra, k.OnBoundary(s, name, "call")...)
	}

	// OnCall annotations (symbolic-to-concrete usage rules).
	for _, a := range k.Annotations[name] {
		if a.OnCall == nil {
			continue
		}
		ctx := &AnnotCtx{K: k, S: s, API: name, CallArgs: callArgs}
		a.OnCall(ctx)
		extra = append(extra, ctx.Extra...)
		if ctx.bug != nil {
			s.Status = vm.StatusBug
			return extra, ctx.bug
		}
		if ctx.discarded {
			s.Status = vm.StatusKilled
			return extra, nil
		}
	}

	more, err := h(k, s)
	extra = append(extra, more...)
	if err != nil {
		s.Status = vm.StatusBug
		return extra, err
	}
	if s.Status != vm.StatusRunning {
		return extra, nil
	}

	// OnReturn annotations (concrete-to-symbolic conversion hints).
	for _, a := range k.Annotations[name] {
		if a.OnReturn == nil {
			continue
		}
		ctx := &AnnotCtx{K: k, S: s, API: name, CallArgs: callArgs}
		a.OnReturn(ctx)
		extra = append(extra, ctx.Extra...)
		if ctx.bug != nil {
			s.Status = vm.StatusBug
			return extra, ctx.bug
		}
		if ctx.discarded {
			s.Status = vm.StatusKilled
			return extra, nil
		}
	}

	if k.OnBoundary != nil {
		extra = append(extra, k.OnBoundary(s, name, "return")...)
	}
	return extra, nil
}

// BugCheck crashes the guest: the path terminates with a crash fault. This
// is both KeBugCheckEx and the interception point for all in-guest checker
// crashes (§3.4's kernel crash handler hook).
func (k *Kernel) BugCheck(s *vm.State, code uint32, msg string) error {
	ks := Of(s)
	ks.Crashed = true
	ks.CrashCode = code
	ks.CrashMsg = msg
	s.Status = vm.StatusBug
	return vm.Faultf("crash", s.PC, "BSOD %#08x: %s", code, msg)
}

// verifierBug raises a Driver Verifier-style bug when in-guest checks are
// enabled; when disabled it degrades to a silent success (stress testing
// without DV would simply not notice).
func (k *Kernel) verifierBug(s *vm.State, code uint32, format string, args ...any) error {
	if !k.VerifierChecks {
		return nil
	}
	return k.BugCheck(s, code, fmt.Sprintf(format, args...))
}

// InvokeSym prepares state s to run a driver entry point: arguments (at
// most four expressions, e.g. a symbolic OID) in r0-r3, return to
// ExitAddr, block accounting reset. The exerciser then steps the state to
// completion.
func (k *Kernel) InvokeSym(s *vm.State, name string, pc uint32, args ...*expr.Expr) {
	for i, a := range args {
		if i >= 4 {
			break
		}
		s.SetReg(uint8(i), a)
	}
	s.SetRegConcrete(isa.LR, vm.ExitAddr)
	s.PC = pc
	s.EntryName = name
	s.Status = vm.StatusRunning
	s.Trace.Append(vm.Event{Kind: vm.EvEntry, Seq: s.ICount, PC: pc, Name: name})
	k.M.MarkBlockStart(s)
}

// InjectInterrupt delivers an interrupt to the driver's registered ISR at
// DeviceLevel, saving the interrupted context, and charges it to
// KState.Interrupts. It reports false (still charged) when the driver has
// not registered an ISR.
func (k *Kernel) InjectInterrupt(s *vm.State) bool {
	ks := Of(s)
	ks.Interrupts++
	if !ks.ISRRegistered || ks.ISRPC == 0 {
		return false
	}
	s.Trace.Append(vm.Event{Kind: vm.EvInterrupt, Seq: s.ICount, PC: s.PC})
	s.PushInterrupt(ks.ISRPC)
	ks.IRQLStack = append(ks.IRQLStack, ks.IRQL)
	ks.IRQL = DeviceLevel
	k.M.MarkBlockStart(s)
	return true
}

// interruptReturn restores the pre-interrupt IRQL; installed as the
// machine's OnInterruptReturn hook.
func (k *Kernel) interruptReturn(s *vm.State) {
	ks := Of(s)
	if n := len(ks.IRQLStack); n > 0 {
		ks.IRQL = ks.IRQLStack[n-1]
		ks.IRQLStack = ks.IRQLStack[:n-1]
	} else {
		ks.IRQL = PassiveLevel
	}
}
