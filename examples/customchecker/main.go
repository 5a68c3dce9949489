// customchecker: extending DDT with a custom dynamic checker and a custom
// interface annotation (§3.1's pluggable checkers, §3.4's annotations).
//
// The checker enforces a made-up site policy — "drivers must not keep more
// than one live pool allocation at any time" — by hooking the allocation
// API. The annotation demonstrates the paper's verbatim example: replacing
// a registry read's result with a fresh symbolic value.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/expr"
	"repro/internal/kernel"
)

func main() {
	img, err := ddt.CorpusDriver("amd-pcnet", false)
	if err != nil {
		log.Fatal(err)
	}

	sess := ddt.NewSession(img, ddt.DefaultConfig())
	eng := sess.Engine()

	// --- Custom checker: allocation budget. ---
	// Annotations run at API boundaries with full access to the per-path
	// kernel state; RaiseBug fails the path like any built-in checker.
	eng.K.Annotate(kernel.Annotation{
		API: "NdisAllocateMemoryWithTag",
		OnReturn: func(ctx *kernel.AnnotCtx) {
			ks := kernel.Of(ctx.S)
			live := 0
			for _, a := range ks.LiveAllocs() {
				if a.Kind == "pool" {
					live++
				}
			}
			if live > 1 {
				ctx.RaiseBug("policy", "allocation budget exceeded: %d live pool allocations", live)
			}
		},
	})

	// --- Custom annotation: the paper's NdisReadConfiguration example, for
	// a site-specific parameter. It creates an unconstrained symbolic
	// integer, discards negative values, and stores it as the result.
	eng.K.Annotate(kernel.Annotation{
		API: "NdisReadConfiguration",
		OnReturn: func(ctx *kernel.AnnotCtx) {
			if !ctx.Ret().IsConst() || ctx.Ret().ConstVal() != kernel.StatusSuccess {
				return
			}
			symb := ctx.NewSymbol("site_config", expr.OriginAnnotation)
			// ddt_discard_state equivalent: keep only non-negative values.
			ctx.S.AddConstraint(expr.SGe(symb, expr.Const(0)))
		},
	})

	report, err := sess.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)

	policy := 0
	for _, b := range report.Bugs {
		if b.Class == "policy" {
			policy++
			fmt.Printf("custom checker hit: %s\n", b.Describe())
		}
	}
	fmt.Printf("\n%d finding(s) from the custom checker, %d from the stock checkers\n",
		policy, len(report.Bugs)-policy)
}
