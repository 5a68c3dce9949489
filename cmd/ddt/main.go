// Command ddt tests a closed-source d32 driver binary (.dxe) for undesired
// behaviours — the paper's "Test Now button" (§1). It prints the bug report
// and optionally writes an executable trace per bug.
//
// Usage:
//
//	ddt [flags] driver.dxe
//	ddt [flags] -corpus rtl8029
//
// Flags:
//
//	-corpus name     test an in-tree evaluation driver instead of a file
//	-fixed           use the corrected corpus variant
//	-no-annotations  disable the NDIS/WDM interface annotations (§5.1 ablation)
//	-no-interrupts   disable symbolic interrupt injection
//	-scenario name   workload scenario: "linear" forces the classic straight-line
//	                 phase plan, "pnp" the PnP/power scenario graph (suspend/
//	                 resume, surprise removal, IRP cancellation); the default
//	                 picks per driver class (storage: pnp, others: linear)
//	-timeout d       campaign wall-clock bound (0 = none)
//	-expect          with -corpus, compare the found bug classes against the
//	                 driver's expected Table 2 set; exit 0 on an exact match
//	                 (even though bugs were found), 3 on any regression —
//	                 the nightly CI job's known-bug-set gate
//	-traces dir      write one executable .ddtrace file per bug into dir
//	-v               also print per-bug solved inputs
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro"
	"repro/internal/campaign"
)

func main() {
	corpusName := flag.String("corpus", "", "test an in-tree evaluation driver (see -list)")
	list := flag.Bool("list", false, "list the in-tree evaluation drivers and exit")
	fixed := flag.Bool("fixed", false, "use the corrected corpus variant")
	noAnnot := flag.Bool("no-annotations", false, "disable interface annotations")
	noIntr := flag.Bool("no-interrupts", false, "disable symbolic interrupts")
	scenario := flag.String("scenario", "", `workload scenario: "linear" or "pnp" (default: per driver class)`)
	cf := campaign.RegisterFlags(flag.CommandLine, campaign.FlagTimeout)
	expect := flag.Bool("expect", false, "with -corpus, exit 3 unless the found bug classes exactly match the driver's expected set")
	traceDir := flag.String("traces", "", "directory to write executable traces into")
	verbose := flag.Bool("v", false, "print solved inputs per bug")
	flag.Parse()

	if *list {
		for _, n := range ddt.CorpusNames() {
			fmt.Println(n)
		}
		return
	}

	img, err := loadImage(*corpusName, *fixed, flag.Args())
	if err != nil {
		fatal(err)
	}

	cfg := ddt.DefaultConfig()
	cfg.Annotations = !*noAnnot
	cfg.SymbolicInterrupts = !*noIntr
	switch *scenario {
	case "", "linear", "pnp":
		cfg.Scenario = *scenario
	default:
		fatal(fmt.Errorf("-scenario must be \"linear\" or \"pnp\", got %q", *scenario))
	}

	ctx := context.Background()
	if cf.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cf.Timeout)
		defer cancel()
	}
	sess := ddt.NewSession(img, cfg)
	rep, err := sess.Run(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep)

	for i, b := range rep.Bugs {
		if *verbose {
			fmt.Printf("\nbug %d inputs:\n%s", i+1, b.Inputs())
		}
		if *traceDir != "" {
			tr := sess.TraceBug(b)
			path := filepath.Join(*traceDir, fmt.Sprintf("%s-bug%02d.ddtrace", img.Name, i+1))
			if err := tr.Save(path); err != nil {
				fatal(fmt.Errorf("writing trace: %w", err))
			}
			fmt.Printf("trace for bug %d written to %s\n", i+1, path)
		}
	}
	if *expect {
		if *corpusName == "" {
			fatal(fmt.Errorf("-expect requires -corpus"))
		}
		want, err := ddt.ExpectedBugs(*corpusName)
		if err != nil {
			fatal(err)
		}
		got := make([]string, 0, len(rep.Bugs))
		for _, b := range rep.Bugs {
			got = append(got, b.Class)
		}
		sort.Strings(want)
		sort.Strings(got)
		if slices.Equal(want, got) {
			fmt.Printf("known-bug set intact: %d expected class(es) found, no extras\n", len(want))
			return
		}
		fmt.Printf("known-bug set REGRESSED:\n  expected %v\n  found    %v\n", want, got)
		os.Exit(3)
	}
	if len(rep.Bugs) > 0 {
		os.Exit(1)
	}
}

func loadImage(corpusName string, fixed bool, args []string) (*ddt.Image, error) {
	if corpusName != "" {
		return ddt.CorpusDriver(corpusName, fixed)
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("usage: ddt [flags] driver.dxe (or -corpus name; -list to enumerate)")
	}
	b, err := os.ReadFile(args[0])
	if err != nil {
		return nil, err
	}
	return ddt.LoadDriver(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddt:", err)
	os.Exit(2)
}
