// Package driververifier implements the Microsoft Driver Verifier baseline
// of §5.1: stress-testing the driver concretely in its real environment with
// deep in-guest dynamic checks, but no symbolic execution. Hardware reads
// return concrete values, registry values are the concrete defaults,
// allocation failures are never injected, interrupts only fire when the
// concrete workload triggers them, and the run stops at the first bug
// (Driver Verifier crashes the system to report).
//
// The paper's result — DV finds none of the 14 Table 2 bugs, because every
// one of them needs either a forked failure path, a symbolic registry or
// OID value, or an interrupt injected at just the right instant — falls out
// directly: the checkers are identical to DDT's, only the exploration
// differs.
package driververifier

import (
	"context"
	"repro/internal/binimg"
	"repro/internal/core"
)

// Run stress-tests a driver image once and returns the report (at most one
// bug, per Driver Verifier's stop-at-first-crash behaviour). The concrete
// run is deterministic, so a second pass would find nothing new.
func Run(img *binimg.Image) (*core.Report, error) {
	eopts := core.DefaultOptions()
	eopts.Annotations = false
	eopts.SymbolicInterrupts = false
	eopts.ConcreteHardware = true
	eopts.StopAtFirstBug = true
	eopts.VerifierChecks = true
	return core.NewEngine(img, eopts).TestDriver(context.Background())
}
