// Command ddtfuzz runs the coverage-guided concolic fuzzer against a d32
// driver binary: the same driver images and workload phases as ddt, but
// fully concrete — device reads, registry values, packet bytes, fork
// decisions, and interrupt timings come from mutated replayable feeds, at
// orders of magnitude more executions per second than symbolic exploration.
//
// Usage:
//
//	ddtfuzz -driver rtl8029 -workers 4 -execs 20000
//	ddtfuzz [flags] driver.dxe
//
// Flags:
//
//	-driver name   fuzz an in-tree evaluation driver instead of a file
//	-fixed         use the corrected corpus variant
//	-workers n     parallel fuzzing workers (default 1: deterministic)
//	-execs n       execution budget (default 20000; 0 = unbounded, needs
//	               -timeout)
//	-timeout d     wall-clock budget, e.g. 30s (0 = none)
//	-seed n        base RNG seed (deterministic per worker)
//	-persist       persistent-mode executors: snapshot the initialized boot
//	               state per boot prefix and resume later executions from it
//	               (bit-identical results, multi-x execs/sec; the report
//	               shows the cold-vs-warm split)
//	-dict          mine a dictionary of instruction immediates (OID
//	               constants, magic values) from the driver image and enable
//	               dictionary-splice mutations
//	-corpus dir    load/persist corpus seeds and crash reproducers here
//	-json file     write the report as JSON ("-" for stdout)
//	-cpuprofile f  write a pprof CPU profile of the campaign to f
//	-expect        compare found classes against the driver's Table 2 set
//	-manager url   attach to a ddtd campaign manager as a fleet worker:
//	               lease campaigns and report crashes, coverage and corpus
//	               deltas both ways (most local flags are ignored — the
//	               lease carries the campaign parameters)
//	-name s        worker name reported to the manager (default host-pid)
//	-oneshot       with -manager: exit after the first completed lease (CI)
//
// SIGINT/SIGTERM shut down gracefully: a local campaign stops, flushes its
// corpus and crash reproducers, and prints its report; a manager-attached
// worker additionally sends its final report before exiting.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro"
	"repro/internal/binimg"
	"repro/internal/campaign"
	"repro/internal/fuzz"
	"repro/internal/manager"
)

func main() {
	driver := flag.String("driver", "", "fuzz an in-tree evaluation driver")
	fixed := flag.Bool("fixed", false, "use the corrected corpus variant")
	cf := campaign.RegisterFlags(flag.CommandLine, campaign.FlagsAll)
	execs := flag.Uint64("execs", 20_000, "execution budget (0 = unbounded, needs -timeout)")
	persist := flag.Bool("persist", false, "persistent-mode executors (snapshot/resume initialized boot states)")
	dict := flag.Bool("dict", false, "mine an immediate dictionary from the driver image for splice mutations")
	corpusDir := flag.String("corpus", "", "corpus directory (seeds in, corpus+crashes out)")
	jsonOut := flag.String("json", "", "write JSON report to file (\"-\" for stdout)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the campaign to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at campaign exit to this file")
	expect := flag.Bool("expect", false, "compare against the driver's expected Table 2 bug classes")
	managerURL := flag.String("manager", "", "attach to a ddtd campaign manager at this base URL")
	name := flag.String("name", "", "worker name reported to the manager (default host-pid)")
	oneShot := flag.Bool("oneshot", false, "with -manager: exit after the first completed lease")
	flag.Parse()

	if *managerURL != "" {
		runManaged(*managerURL, *name, cf.Workers, *oneShot)
		return
	}

	if *execs == 0 && cf.Timeout == 0 {
		fatal(fmt.Errorf("-execs 0 (unbounded) requires a -timeout budget"))
	}

	img, err := loadImage(*driver, *fixed, flag.Args())
	if err != nil {
		fatal(err)
	}

	cfg := fuzz.DefaultConfig()
	cfg.Options = cf.Options()
	cfg.MaxExecs = *execs
	cfg.Persist = *persist
	cfg.Dict = *dict
	cfg.CorpusDir = *corpusDir

	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fatal(err)
		}
		defer pf.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer writeHeapProfile(*memProfile)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops the campaign, so
	// Run returns normally — flushing the corpus directory and printing the
	// report for whatever was found before the signal.
	ctx, cancel := manager.ShutdownContext(context.Background())
	rep, err := fuzz.New(img, cfg).Run(ctx)
	cancel()
	if err != nil && rep == nil {
		fatal(err)
	}
	if err != nil {
		// A post-campaign failure (e.g. corpus dir unwritable) must not
		// discard the completed report and its crash reproducers.
		fmt.Fprintln(os.Stderr, "ddtfuzz: warning:", err)
	}
	fmt.Print(rep)

	if *expect && *driver != "" {
		want, err := ddt.ExpectedBugs(*driver)
		if err != nil {
			fatal(err)
		}
		found := rep.CountByClass()
		wantSet := make(map[string]int)
		for _, c := range want {
			wantSet[c]++
		}
		fmt.Printf("expected Table 2 classes for %s:\n", *driver)
		hits := 0
		for c, n := range wantSet {
			got := found[c]
			mark := "MISS"
			if got > 0 {
				mark = "hit"
				hits++
			}
			fmt.Printf("  %-20s want %d  found %d  [%s]\n", c, n, got, mark)
		}
		fmt.Printf("  %d/%d expected classes reproduced\n", hits, len(wantSet))
	}

	if *jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if *jsonOut == "-" {
			fmt.Println(string(b))
		} else if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
}

// runManaged attaches this process to a ddtd campaign manager as a fleet
// worker: campaigns come from leases, not local flags. SIGINT/SIGTERM stops
// the in-flight campaign and sends its final report before returning.
func runManaged(url, name string, procs int, oneShot bool) {
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, cancel := manager.ShutdownContext(context.Background())
	defer cancel()
	err := manager.RunWorker(ctx, manager.WorkerConfig{
		Manager: url,
		Name:    name,
		Procs:   procs,
		OneShot: oneShot,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ddtfuzz: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
}

func loadImage(driver string, fixed bool, args []string) (*binimg.Image, error) {
	switch {
	case driver != "":
		return ddt.CorpusDriver(driver, fixed)
	case len(args) == 1:
		b, err := os.ReadFile(args[0])
		if err != nil {
			return nil, err
		}
		return ddt.LoadDriver(b)
	default:
		return nil, fmt.Errorf("pass -driver name or one driver binary path (see ddt -list)")
	}
}

// writeHeapProfile snapshots the live heap (after a forced GC, so the
// profile reflects retained objects rather than garbage awaiting collection)
// into a pprof file.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddtfuzz:", err)
	os.Exit(2)
}
