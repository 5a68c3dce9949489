// Package ddt is a faithful reimplementation of DDT — "Testing
// Closed-Source Binary Device Drivers with DDT" (Kuznetsov, Chipounov,
// Candea; USENIX ATC 2010) — as a Go library.
//
// DDT tests closed-source binary device drivers by combining virtualization
// with selective symbolic execution: the driver binary runs symbolically
// inside a virtual machine while the (simulated, concrete) OS kernel around
// it runs natively. Fully symbolic hardware — a fake PCI device whose
// register reads return fresh symbolic values and whose writes are
// discarded — plus symbolic interrupts injected at kernel/driver boundary
// crossings let DDT explore driver behaviours that depend on device output
// and interrupt timing, with no physical device at all. Modular dynamic
// checkers flag memory errors, race conditions, deadlocks, resource leaks
// and kernel API misuse; every reported bug carries an executable trace
// with solved concrete inputs that replays deterministically to the same
// failure.
//
// Quick start:
//
//	img, err := ddt.LoadDriver(dxeBytes)          // a closed d32 binary
//	report, err := ddt.Test(img, ddt.DefaultConfig())
//	for _, bug := range report.Bugs {
//	    fmt.Println(bug.Describe())
//	    tr := ddt.TraceOf(bug, report)            // executable evidence
//	    res, _ := ddt.Replay(tr, img)             // re-run to the same BSOD
//	    fmt.Println(res)
//	}
//
// Drivers are d32 machine-code images (see internal/isa for the ISA and
// internal/asm for the assembler used to build the evaluation corpus); DDT
// itself never sees source or symbols.
//
// # Coverage-guided concolic fuzzing
//
// Symbolic exploration is exhaustive per path but bounded by path
// explosion. The fuzzing subsystem (internal/fuzz, command ddtfuzz) runs
// the same driver images and workload phases fully concretely: device
// register reads, registry values, packet bytes, allocation-failure
// decisions and interrupt timings are answered from replayable byte feeds,
// mutated under coverage guidance by a parallel worker pool — orders of
// magnitude more executions per second, one concrete path each
// (fuzz.FromBug turns a symbolic bug's solved inputs into such a feed).
// Fuzz and Replay-style feed re-execution are exposed here:
//
//	rep, err := ddt.Fuzz(img, ddt.DefaultFuzzConfig())
//	for _, c := range rep.Crashes {
//	    res := ddt.ReplayFeed(img, c.Feed)     // deterministic reproducer
//	    fmt.Println(c, res.Crash != nil)
//	}
package ddt

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/binimg"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fuzz"
	"repro/internal/trace"
)

// Config selects DDT's testing options, mirroring the paper's setup. The
// symbolic workload runs on one goroutine, phase by phase in OS order, and
// is fully deterministic. The context passed to Test or Session.Run bounds
// the session's wall-clock time.
type Config struct {
	// Annotations enables the stock NDIS/WDM interface annotations (§3.4):
	// symbolic registry values, forked allocation failures, symbolic entry
	// arguments. Disabling them is the §5.1 ablation: races and
	// hardware-dependent bugs are still found, failure-path leaks and
	// unexpected-argument crashes are not.
	Annotations bool
	// SymbolicInterrupts injects interrupts at kernel/driver boundary
	// crossings (§3.3).
	SymbolicInterrupts bool
	// VerifierChecks enables the in-guest Driver Verifier-style checkers
	// (§3.1.2).
	VerifierChecks bool
	// MaxStates, MaxStepsPerPath, MaxPathsPerEntry bound the exploration.
	MaxStates        int
	MaxStepsPerPath  uint64
	MaxPathsPerEntry int
	// Registry overrides the simulated registry hive.
	Registry map[string]uint32
	// Scenario selects the workload shape: "linear" runs the classic
	// straight-line phase plan; "pnp" runs the scenario graph with
	// PnP/power alternatives (suspend/resume, surprise removal, IRP
	// cancellation racing the ISR) on classes that define them. Empty
	// picks the class default (storage: "pnp"; everything else: "linear").
	Scenario string
}

// CampaignOptions is the fuzz campaign envelope FuzzConfig embeds
// (workers, budgets, seed, stop condition).
type CampaignOptions = campaign.Options

// DefaultConfig mirrors the paper's evaluation configuration.
func DefaultConfig() Config {
	o := core.DefaultOptions()
	return Config{
		Annotations:        o.Annotations,
		SymbolicInterrupts: o.SymbolicInterrupts,
		VerifierChecks:     o.VerifierChecks,
		MaxStates:          o.MaxStates,
		MaxStepsPerPath:    o.MaxStepsPerPath,
		MaxPathsPerEntry:   o.MaxPathsPerEntry,
	}
}

func (c Config) options() core.Options {
	o := core.DefaultOptions()
	o.Annotations = c.Annotations
	o.SymbolicInterrupts = c.SymbolicInterrupts
	o.VerifierChecks = c.VerifierChecks
	if c.MaxStates > 0 {
		o.MaxStates = c.MaxStates
	}
	if c.MaxStepsPerPath > 0 {
		o.MaxStepsPerPath = c.MaxStepsPerPath
	}
	if c.MaxPathsPerEntry > 0 {
		o.MaxPathsPerEntry = c.MaxPathsPerEntry
	}
	o.Registry = c.Registry
	o.Scenario = c.Scenario
	return o
}

// Re-exported result types.
type (
	// Report is a full DDT run report: bugs, coverage, statistics.
	Report = core.Report
	// Bug is one confirmed undesired behaviour with trace and inputs.
	Bug = core.Bug
	// Image is a parsed closed-source driver binary.
	Image = binimg.Image
	// DriverInfo is the static characterization behind Table 1.
	DriverInfo = binimg.Info
	// Trace is an executable, self-contained bug trace (§3.5).
	Trace = trace.File
	// ReplayResult reports a trace re-execution.
	ReplayResult = trace.Result
)

// LoadDriver parses a DXE driver binary.
func LoadDriver(b []byte) (*Image, error) { return binimg.Parse(b) }

// Inspect statically characterizes a driver binary (file size, code size,
// functions, kernel imports — the columns of Table 1).
func Inspect(img *Image) DriverInfo { return binimg.Analyze(img) }

// Test runs the full DDT workload — load, initialize, data path, query/set,
// interrupts, DPCs, halt — against the driver image and reports every bug
// found, each with an executable trace. Canceling ctx stops the session
// mid-run and returns the bugs found so far.
func Test(ctx context.Context, img *Image, cfg Config) (*Report, error) {
	eng := core.NewEngine(img, cfg.options())
	return eng.TestDriver(ctx)
}

// Session is a reusable handle over one engine run, for callers that want
// traces or custom inspection after Test.
type Session struct {
	eng *core.Engine
	cfg Config
}

// NewSession prepares (but does not run) a DDT session.
func NewSession(img *Image, cfg Config) *Session {
	return &Session{eng: core.NewEngine(img, cfg.options()), cfg: cfg}
}

// Run executes the workload. Canceling ctx stops the session mid-run.
func (s *Session) Run(ctx context.Context) (*Report, error) { return s.eng.TestDriver(ctx) }

// Engine exposes the underlying engine for advanced use (custom phases,
// direct state inspection). Most callers won't need it.
func (s *Session) Engine() *core.Engine { return s.eng }

// TraceBug builds the executable trace for one of this session's bugs,
// recording the session's scenario and path bounds for the replay.
func (s *Session) TraceBug(b *Bug) *Trace {
	f := trace.New(b, s.eng.Img.Name, s.cfg.Annotations, s.eng.EffectiveRegistry())
	o := s.eng.Opts
	f.Scenario, f.MaxStepsPerPath, f.LoopThreshold = o.Scenario, o.MaxStepsPerPath, o.LoopThreshold
	return f
}

// Replay re-executes a trace against the driver image, verifying the
// recorded bug fires again: the trace's solved inputs, fork decisions and
// interrupt instants become a feed (the FromBug conversion ReplayFeed's
// reproducers come from), which the concrete fuzz executor runs on the
// recording run's scenario and path bounds. The bug is reproduced when
// the replay's finding key (class and fault site) equals the trace's.
func Replay(t *Trace, img *Image) (*ReplayResult, error) { return trace.Replay(t, img) }

// Bug post-mortem types (§3.6): classify whether a bug needs
// malfunctioning hardware, given the device's documented behaviour.
type (
	// DeviceSpec is the datasheet slice used for hardware-dependence
	// analysis.
	DeviceSpec = analysis.DeviceSpec
	// RegisterRange bounds one register's documented values.
	RegisterRange = analysis.RegisterRange
	// Verdict is the hardware-dependence conclusion for one bug.
	Verdict = analysis.Verdict
	// ExecTree is the reconstructed execution tree over bug traces (§3.5).
	ExecTree = trace.Tree
)

// AnalyzeBug decides, from the bug's trace and solved inputs, whether the
// failure can occur with specification-conforming hardware (§3.6). A nil
// spec still reports hardware dependence, just not malfunction.
func AnalyzeBug(b *Bug, spec *DeviceSpec) *Verdict { return analysis.Analyze(b, spec) }

// BuildExecTree merges bug traces into the execution tree of explored
// paths: shared prefixes appear once; each leaf is one failure (§3.5).
func BuildExecTree(traces []*Trace) *ExecTree { return trace.BuildTree(traces) }

// Coverage-guided fuzzing re-exports (internal/fuzz).
type (
	// FuzzConfig configures a fuzzing campaign.
	FuzzConfig = fuzz.Config
	// FuzzReport summarizes a fuzzing campaign.
	FuzzReport = fuzz.Report
	// FuzzCrash is one deduplicated concrete crash with a replayable feed.
	FuzzCrash = fuzz.Crash
	// Feed is a replayable concrete input stream (the fuzzer's genome).
	Feed = fuzz.Feed
	// FeedResult is the outcome of re-executing one feed.
	FeedResult = fuzz.ExecResult
	// FuzzOptions configure the concrete executor (annotation injection,
	// step/interrupt bounds, registry overrides).
	FuzzOptions = fuzz.Options
)

// DefaultFuzzConfig returns the stock fuzzing campaign configuration.
func DefaultFuzzConfig() FuzzConfig { return fuzz.DefaultConfig() }

// Fuzz runs a coverage-guided concrete fuzzing campaign against the driver
// image: the same workload phases as Test, driven by mutated feeds instead
// of symbolic values. Canceling ctx stops the campaign; results of
// executions still in flight at cancellation are not admitted, so the
// report is frozen when Fuzz returns.
func Fuzz(ctx context.Context, img *Image, cfg FuzzConfig) (*FuzzReport, error) {
	return fuzz.New(img, cfg).Run(ctx)
}

// ReplayFeed deterministically re-executes one feed under the default
// executor options. A feed from a campaign with non-default FuzzConfig.Exec
// must be replayed with ReplayFeedWith and the report's Exec options —
// annotation sites consume feed words, so mismatched options shift the
// whole stream.
func ReplayFeed(img *Image, f *Feed) *FeedResult {
	return ReplayFeedWith(img, f, fuzz.DefaultOptions())
}

// ReplayFeedWith re-executes a feed under explicit executor options
// (FuzzReport.Exec records the options a campaign ran with).
func ReplayFeedWith(img *Image, f *Feed, opts FuzzOptions) *FeedResult {
	return fuzz.NewExecutor(img, nil, opts).Run(f)
}

// UnmarshalFeed parses a serialized feed (the reproducer exchange format;
// Feed.Marshal is the inverse).
func UnmarshalFeed(b []byte) (*Feed, error) { return fuzz.UnmarshalFeed(b) }

// CorpusDriver assembles one of the in-tree evaluation drivers (Table 1):
// "rtl8029", "amd-pcnet", "intel-pro1000", "intel-pro100",
// "ensoniq-audiopci", "intel-ac97", "ddk-sample", "ddk-sample-synthetic".
// fixed selects the corrected variant (used to validate the
// zero-false-positive property).
func CorpusDriver(name string, fixed bool) (*Image, error) {
	v := corpus.Buggy
	if fixed {
		v = corpus.Fixed
	}
	return corpus.Build(name, v)
}

// CorpusNames lists the in-tree evaluation drivers.
func CorpusNames() []string { return corpus.Names() }

// ExpectedBugs returns the Table 2 bug classes planted in a corpus driver.
func ExpectedBugs(name string) ([]string, error) {
	spec, ok := corpus.Get(name)
	if !ok {
		return nil, fmt.Errorf("ddt: unknown corpus driver %q", name)
	}
	return append([]string(nil), spec.ExpectedBugs...), nil
}
