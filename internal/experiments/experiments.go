// Package experiments regenerates every table and figure of the paper's
// evaluation (§5), shared by the ddtbench command and the benchmark suite.
// EXPERIMENTS.md records the paper-vs-measured comparison.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline/driververifier"
	"repro/internal/baseline/sdv"
	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exerciser"
)

// Table1Drivers lists the evaluation drivers in the paper's Table 1 order.
var Table1Drivers = []string{
	"intel-pro1000", "intel-pro100", "intel-ac97",
	"ensoniq-audiopci", "amd-pcnet", "rtl8029",
}

// Figure2Drivers are the representative subset the paper plots.
var Figure2Drivers = []string{"rtl8029", "intel-pro100", "intel-ac97"}

// Table1 regenerates the driver-characteristics table from the binaries.
func Table1() ([]binimg.Info, error) {
	var out []binimg.Info
	for _, name := range Table1Drivers {
		img, err := corpus.Build(name, corpus.Buggy)
		if err != nil {
			return nil, err
		}
		out = append(out, binimg.Analyze(img))
	}
	return out, nil
}

// FormatTable1 renders Table 1 as text.
func FormatTable1(infos []binimg.Info) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %10s %10s %10s %12s\n",
		"Tested Driver", "File (KB)", "Code (KB)", "Functions", "Kernel Calls")
	for _, i := range infos {
		fmt.Fprintf(&b, "%-18s %10.1f %10.1f %10d %12d\n",
			i.Name, float64(i.FileSize)/1024, float64(i.CodeSize)/1024,
			i.NumFunctions, i.KernelImports)
	}
	return b.String()
}

// Table2Row is one driver's discovery outcome.
type Table2Row struct {
	Driver   string
	Report   *core.Report
	Expected []string
	Elapsed  time.Duration
}

// Matches reports whether the found bug classes are exactly the expected
// multiset.
func (r Table2Row) Matches() bool {
	got := make([]string, 0, len(r.Report.Bugs))
	for _, b := range r.Report.Bugs {
		got = append(got, b.Class)
	}
	want := append([]string(nil), r.Expected...)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// Table2 runs DDT on the six buggy drivers with the paper's configuration.
func Table2() ([]Table2Row, error) {
	var out []Table2Row
	for _, name := range Table1Drivers {
		spec, _ := corpus.Get(name)
		img, err := corpus.Build(name, corpus.Buggy)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		eng := core.NewEngine(img, core.DefaultOptions())
		rep, err := eng.TestDriver(context.Background())
		if err != nil {
			return nil, err
		}
		out = append(out, Table2Row{
			Driver: name, Report: rep, Expected: spec.ExpectedBugs, Elapsed: time.Since(start),
		})
	}
	return out, nil
}

// FormatTable2 renders the bug-discovery table.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	total := 0
	fmt.Fprintf(&b, "%-18s %-22s %s\n", "Tested Driver", "Bug Type", "Description")
	for _, r := range rows {
		for _, bug := range r.Report.Bugs {
			fmt.Fprintf(&b, "%-18s %-22s %s\n", r.Driver, bug.Class, bug.Fault.Msg)
			total++
		}
	}
	fmt.Fprintf(&b, "total: %d bugs (paper: 14), all warnings shown, no false positives filtered\n", total)
	return b.String()
}

// CoverageRun is one Figure 2/3 series.
type CoverageRun struct {
	Driver   string
	Static   int // total basic blocks (denominator of Figure 2)
	Series   []exerciser.CoveragePoint
	Covered  int
	Relative float64
	Elapsed  time.Duration
}

// Coverage produces the Figure 2 (relative) and Figure 3 (absolute)
// coverage-versus-time curves. Time is deterministic simulated time
// (executed instructions); InstrPerMinute converts to the paper's axis.
func Coverage() ([]CoverageRun, error) {
	var out []CoverageRun
	for _, name := range Figure2Drivers {
		img, err := corpus.Build(name, corpus.Buggy)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		eng := core.NewEngine(img, core.DefaultOptions())
		rep, err := eng.TestDriver(context.Background())
		if err != nil {
			return nil, err
		}
		out = append(out, CoverageRun{
			Driver:   name,
			Static:   rep.BlocksStatic,
			Series:   rep.CoverageSeries,
			Covered:  rep.BlocksCovered,
			Relative: rep.RelativeCoverage(),
			Elapsed:  time.Since(start),
		})
	}
	return out, nil
}

// InstrPerMinute converts simulated instructions to the figures' minutes
// axis (calibration constant; the curves' shape is what matters).
const InstrPerMinute = 2000

// FormatCoverage renders both figures as text series.
func FormatCoverage(runs []CoverageRun, relative bool) string {
	var b strings.Builder
	if relative {
		b.WriteString("Figure 2: relative basic-block coverage vs time (simulated minutes)\n")
	} else {
		b.WriteString("Figure 3: absolute covered basic blocks vs time (simulated minutes)\n")
	}
	for _, r := range runs {
		fmt.Fprintf(&b, "%s (static blocks: %d, final: %d = %.0f%%)\n",
			r.Driver, r.Static, r.Covered, 100*r.Relative)
		for _, p := range sampled(r.Series, 12) {
			min := float64(p.Instructions) / InstrPerMinute
			if relative {
				fmt.Fprintf(&b, "  t=%6.2f  %5.1f%%\n", min, 100*float64(p.Blocks)/float64(r.Static))
			} else {
				fmt.Fprintf(&b, "  t=%6.2f  %5d blocks\n", min, p.Blocks)
			}
		}
	}
	return b.String()
}

func sampled(s []exerciser.CoveragePoint, n int) []exerciser.CoveragePoint {
	if len(s) <= n {
		return s
	}
	out := make([]exerciser.CoveragePoint, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s[i*len(s)/n])
	}
	out = append(out, s[len(s)-1])
	return out
}

// DVResult is the Driver Verifier baseline outcome.
type DVResult struct {
	Driver   string
	BugsSeen int
}

// DriverVerifier runs the concrete stress baseline over the six drivers
// (§5.1: it finds none of the 14 bugs).
func DriverVerifier() ([]DVResult, error) {
	var out []DVResult
	for _, name := range Table1Drivers {
		img, err := corpus.Build(name, corpus.Buggy)
		if err != nil {
			return nil, err
		}
		rep, err := driververifier.Run(img)
		if err != nil {
			return nil, err
		}
		out = append(out, DVResult{Driver: name, BugsSeen: len(rep.Bugs)})
	}
	return out, nil
}

// SDVComparison is the §5.1 head-to-head on the sample driver.
type SDVComparison struct {
	SampleSDVFindings int // paper: 8
	SampleDDTBugs     int // paper: 8 (in a third of the time)
	SDVElapsed        time.Duration
	DDTElapsed        time.Duration
	SynSDVReal        int // paper: 2
	SynSDVFalse       int // paper: 1
	SynDDTBugs        int // paper: 5
	SynDDTFalse       int // paper: 0
	SynSDVElapsed     time.Duration
	SynDDTElapsed     time.Duration
}

// RunSDVComparison executes both tools on the sample drivers.
func RunSDVComparison() (*SDVComparison, error) {
	out := &SDVComparison{}

	sampleImg, err := corpus.Build("ddk-sample", corpus.Buggy)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sdvRep := sdv.Analyze(sampleImg)
	out.SDVElapsed = time.Since(start)
	out.SampleSDVFindings = len(sdvRep.Findings)

	start = time.Now()
	eng := core.NewEngine(sampleImg, core.DefaultOptions())
	rep, err := eng.TestDriver(context.Background())
	if err != nil {
		return nil, err
	}
	out.DDTElapsed = time.Since(start)
	out.SampleDDTBugs = len(rep.Bugs)

	synImg, err := corpus.Build("ddk-sample-synthetic", corpus.Buggy)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	synSDV := sdv.Analyze(synImg)
	out.SynSDVElapsed = time.Since(start)
	for _, f := range synSDV.Findings {
		// The one false positive is the forgotten-release report on the
		// lock-wrapper helper (a single-lock-operation function whose
		// release lives in a callee); genuine findings sit in the big
		// entry-point functions.
		if f.Rule == "forgotten-release" && f.FuncEvents <= 2 {
			out.SynSDVFalse++
		} else {
			out.SynSDVReal++
		}
	}

	start = time.Now()
	eng2 := core.NewEngine(synImg, core.DefaultOptions())
	rep2, err := eng2.TestDriver(context.Background())
	if err != nil {
		return nil, err
	}
	out.SynDDTElapsed = time.Since(start)
	out.SynDDTBugs = len(rep2.Bugs)

	fixedImg, err := corpus.Build("ddk-sample-synthetic", corpus.Fixed)
	if err != nil {
		return nil, err
	}
	eng3 := core.NewEngine(fixedImg, core.DefaultOptions())
	rep3, err := eng3.TestDriver(context.Background())
	if err != nil {
		return nil, err
	}
	out.SynDDTFalse = len(rep3.Bugs)
	return out, nil
}

// FormatSDV renders the comparison.
func (c *SDVComparison) Format() string {
	var b strings.Builder
	b.WriteString("SDV comparison (sample driver, 8 seeded bugs):\n")
	fmt.Fprintf(&b, "  SDV found %d in %v; DDT found %d in %v\n",
		c.SampleSDVFindings, c.SDVElapsed.Round(time.Millisecond),
		c.SampleDDTBugs, c.DDTElapsed.Round(time.Millisecond))
	b.WriteString("Synthetic injection (deadlock, out-of-order release, extra release,\n")
	b.WriteString("forgotten release, wrong-IRQL call):\n")
	fmt.Fprintf(&b, "  SDV: %d real + %d false positive(s) in %v (paper: 2 + 1)\n",
		c.SynSDVReal, c.SynSDVFalse, c.SynSDVElapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  DDT: %d real + %d false positive(s) in %v (paper: 5 + 0)\n",
		c.SynDDTBugs, c.SynDDTFalse, c.SynDDTElapsed.Round(time.Millisecond))
	return b.String()
}

// AblationRow summarizes one driver's annotation ablation.
type AblationRow struct {
	Driver    string
	WithAnnot map[string]int
	NoAnnot   map[string]int
}

// Ablation reruns the corpus with annotations disabled (§5.1).
func Ablation() ([]AblationRow, error) {
	var out []AblationRow
	for _, name := range Table1Drivers {
		img, err := corpus.Build(name, corpus.Buggy)
		if err != nil {
			return nil, err
		}
		with := core.NewEngine(img, core.DefaultOptions())
		repW, err := with.TestDriver(context.Background())
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.Annotations = false
		without := core.NewEngine(img, opts)
		repN, err := without.TestDriver(context.Background())
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{
			Driver: name, WithAnnot: repW.CountByClass(), NoAnnot: repN.CountByClass(),
		})
	}
	return out, nil
}

// FormatAblation renders the ablation table.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-34s %s\n", "Driver", "with annotations", "without")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-34s %s\n", r.Driver, classes(r.WithAnnot), classes(r.NoAnnot))
	}
	b.WriteString("(races and interrupt bugs survive; leaks and segfaults are lost — §5.1)\n")
	return b.String()
}

func classes(m map[string]int) string {
	if len(m) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}
