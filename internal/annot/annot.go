// Package annot ships the stock interface annotations for the NDIS and WDM
// APIs (§3.4.1). Annotations are a one-time effort by OS developers; the
// paper reports two weeks for all 277 NDIS functions and one day for the 54
// WDM functions its sound drivers used. Here they are Go functions with the
// same shape as the paper's C-compiled-to-LLVM hooks: they run at API
// call/return boundaries with direct access to guest state through
// kernel.AnnotCtx.
//
// The four annotation categories of §3.4.1 appear as:
//
//   - concrete-to-symbolic conversion hints: NdisReadConfiguration returns
//     a symbolic integer; allocation APIs fork their failure alternative.
//   - symbolic-to-concrete conversion hints: argument usage rules checked
//     at call time (e.g. NdisFreeMemory length must match).
//   - resource allocation hints: built into the kernel handlers themselves
//     (grants/revokes), since our kernel is instrumented source.
//   - kernel crash handler hook: kernel.BugCheck, installed by default.
//
// Disabling annotations (DDT's default mode) still finds hardware-related
// and race bugs but loses coverage of failure paths — exactly the ablation
// reported in §5.1.
package annot

import (
	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// MaxAllocFailForks bounds how many allocation-failure alternatives are
// forked per path, keeping the failure-path exploration finite.
const MaxAllocFailForks = 16

// InstallAll adds the stock annotations of the NDIS and the
// Ex/Ke/PortCls APIs.
func InstallAll(k *kernel.Kernel) {
	for _, a := range []kernel.Annotation{
		{API: "NdisReadConfiguration", OnReturn: ndisReadConfigurationReturn},
		{API: "NdisAllocateMemoryWithTag", OnReturn: ndisAllocateMemoryWithTagReturn},
		{API: "NdisAllocatePacket", OnReturn: ndisAllocatePacketReturn},
		{API: "NdisMAllocateSharedMemory", OnReturn: ndisMAllocateSharedMemoryReturn},
		{API: "ExAllocatePoolWithTag", OnReturn: exAllocatePoolWithTagReturn},
		{API: "PcNewInterruptSync", OnReturn: pcNewInterruptSyncReturn},
	} {
		k.Annotate(a)
	}
}

// ndisReadConfigurationReturn is the paper's flagship example (§3.4.1,
// verbatim logic): when the call succeeded and returned an integer
// parameter, replace the value with a fresh non-negative symbolic integer.
func ndisReadConfigurationReturn(ctx *kernel.AnnotCtx) {
	if !ctx.Ret().IsConst() || ctx.Ret().ConstVal() != kernel.StatusSuccess {
		return
	}
	paramPtrPtr := ctx.Arg(1)
	if !paramPtrPtr.IsConst() {
		return
	}
	blockPtr := ctx.ReadMem(paramPtrPtr.ConstVal(), 4)
	if !blockPtr.IsConst() {
		return
	}
	block := blockPtr.ConstVal()
	ptype := ctx.ReadMem(block, 4)
	if !ptype.IsConst() || ptype.ConstVal() != kernel.ParamInteger {
		return
	}
	symb := ctx.NewSymbol("registry_value", expr.OriginRegistry)
	// The paper's annotation discards states where the symbolic integer is
	// negative; the equivalent here is the path constraint symb >= 0.
	ctx.S.AddConstraint(expr.SGe(symb, expr.Const(0)))
	ctx.WriteMem(block+4, 4, symb)
}

// forkAllocFailure forks an alternative path on which the allocator failed,
// bounded by MaxAllocFailForks per path. It returns nil when the bound is
// reached, and under a ForkPolicy (the fuzz executor) that keeps the
// primary outcome (the budget is charged either way, so a concrete
// execution consumes it as exploration does).
func forkAllocFailure(ctx *kernel.AnnotCtx) *vm.State {
	ks := kernel.Of(ctx.S)
	if ks.AllocFailForks >= MaxAllocFailForks {
		return nil
	}
	ks.AllocFailForks++
	return ctx.Fork()
}

// ndisAllocateMemoryWithTagReturn forks the NDIS_STATUS_RESOURCES outcome.
func ndisAllocateMemoryWithTagReturn(ctx *kernel.AnnotCtx) {
	if !ctx.Ret().IsConst() || ctx.Ret().ConstVal() != kernel.StatusSuccess {
		return
	}
	ptrPtr := ctx.Arg(0)
	if !ptrPtr.IsConst() {
		return
	}
	ptr := ctx.ReadMem(ptrPtr.ConstVal(), 4)
	if !ptr.IsConst() {
		return
	}
	if altState := forkAllocFailure(ctx); altState != nil {
		kernel.Of(altState).HeapFree(ptr.ConstVal())
		altState.Mem.Write(ptrPtr.ConstVal(), 4, expr.Const(0))
		altState.SetRegConcrete(isa.R0, kernel.StatusResources)
	}
}

// ndisAllocatePacketReturn forks the packet-exhaustion outcome.
func ndisAllocatePacketReturn(ctx *kernel.AnnotCtx) {
	if !ctx.Ret().IsConst() || ctx.Ret().ConstVal() != kernel.StatusSuccess {
		return
	}
	statusPtr := ctx.Arg(0)
	pktPtr := ctx.Arg(1)
	if !statusPtr.IsConst() || !pktPtr.IsConst() {
		return
	}
	pkt := ctx.ReadMem(pktPtr.ConstVal(), 4)
	if !pkt.IsConst() {
		return
	}
	if altState := forkAllocFailure(ctx); altState != nil {
		kernel.Of(altState).FreePacket(pkt.ConstVal())
		altState.Mem.Write(statusPtr.ConstVal(), 4, expr.Const(kernel.StatusResources))
		altState.Mem.Write(pktPtr.ConstVal(), 4, expr.Const(0))
		altState.SetRegConcrete(isa.R0, kernel.StatusResources)
	}
}

// ndisMAllocateSharedMemoryReturn forks the DMA-exhaustion outcome.
func ndisMAllocateSharedMemoryReturn(ctx *kernel.AnnotCtx) {
	if !ctx.Ret().IsConst() || ctx.Ret().ConstVal() != kernel.StatusSuccess {
		return
	}
	vaPtr := ctx.Arg(3)
	if !vaPtr.IsConst() {
		return
	}
	va := ctx.ReadMem(vaPtr.ConstVal(), 4)
	if !va.IsConst() {
		return
	}
	if altState := forkAllocFailure(ctx); altState != nil {
		kernel.Of(altState).HeapFree(va.ConstVal())
		altState.Mem.Write(vaPtr.ConstVal(), 4, expr.Const(0))
		altState.SetRegConcrete(isa.R0, kernel.StatusResources)
	}
}

// exAllocatePoolWithTagReturn forks the NULL-pointer outcome — the path on
// which the Ensoniq AudioPCI driver of Table 2 dereferences NULL despite
// having checked.
func exAllocatePoolWithTagReturn(ctx *kernel.AnnotCtx) {
	ret := ctx.Ret()
	if !ret.IsConst() || ret.ConstVal() == 0 {
		return
	}
	if altState := forkAllocFailure(ctx); altState != nil {
		kernel.Of(altState).HeapFree(ret.ConstVal())
		altState.SetRegConcrete(isa.R0, 0)
	}
}

// pcNewInterruptSyncReturn forks the creation-failure outcome — the other
// Ensoniq AudioPCI crash of Table 2.
func pcNewInterruptSyncReturn(ctx *kernel.AnnotCtx) {
	if !ctx.Ret().IsConst() || ctx.Ret().ConstVal() != kernel.StatusSuccess {
		return
	}
	syncPtrPtr := ctx.Arg(0)
	if !syncPtrPtr.IsConst() {
		return
	}
	if altState := forkAllocFailure(ctx); altState != nil {
		sync := ctx.ReadMem(syncPtrPtr.ConstVal(), 4)
		if sync.IsConst() {
			kernel.Of(altState).DropIntrSync(sync.ConstVal())
		}
		altState.Mem.Write(syncPtrPtr.ConstVal(), 4, expr.Const(0))
		altState.SetRegConcrete(isa.R0, kernel.StatusFailure)
	}
}
