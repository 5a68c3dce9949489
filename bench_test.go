package ddt

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the regenerated artifact once (via b.Logf on the
// first iteration) and reports the usual Go timing/allocation metrics, so
// the same run yields both the reproduction data and its cost.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/baseline/sdv"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/fuzz"
	"repro/internal/isa"
	"repro/internal/solver"
	"repro/internal/vm"
)

// BenchmarkTable1Characteristics regenerates Table 1: the static
// characterization (binary size, code size, function count, kernel imports)
// of the six evaluation drivers, recovered from the closed binaries alone.
func BenchmarkTable1Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		infos, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatTable1(infos))
		}
	}
}

// BenchmarkTable2BugDiscovery regenerates Table 2: one full DDT run per
// driver, asserting the found bug classes match the paper's 14 bugs.
func BenchmarkTable2BugDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, r := range rows {
			if !r.Matches() {
				b.Fatalf("%s: classes do not match Table 2", r.Driver)
			}
			total += len(r.Report.Bugs)
		}
		if total != 14 {
			b.Fatalf("found %d bugs, want 14", total)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatTable2(rows))
		}
	}
}

// BenchmarkFigure2RelativeCoverage regenerates Figure 2: relative
// basic-block coverage versus (simulated) time for the representative
// drivers, rising into the 60–90%% band with the per-entry-point step
// pattern the paper describes.
func BenchmarkFigure2RelativeCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := experiments.Coverage()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range runs {
			if r.Relative < 0.6 || r.Relative > 0.95 {
				b.Fatalf("%s: relative coverage %.0f%% outside the paper's band", r.Driver, 100*r.Relative)
			}
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatCoverage(runs, true))
		}
	}
}

// BenchmarkFigure3AbsoluteCoverage regenerates Figure 3: absolute covered
// basic blocks versus time for the same runs.
func BenchmarkFigure3AbsoluteCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := experiments.Coverage()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatCoverage(runs, false))
		}
	}
}

// BenchmarkDriverVerifierBaseline regenerates the §5.1 Driver Verifier
// comparison: concrete stress testing with the same in-guest checks finds
// none of the 14 bugs.
func BenchmarkDriverVerifierBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.DriverVerifier()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.BugsSeen != 0 {
				b.Fatalf("%s: Driver Verifier found %d bugs, paper says 0", r.Driver, r.BugsSeen)
			}
		}
		if i == 0 {
			b.Logf("Driver Verifier found 0 of the 14 Table 2 bugs (paper: 0)")
		}
	}
}

// BenchmarkSDVSampleBugs regenerates the §5.1 SDV head-to-head on the
// DDK-style sample driver: both tools find the 8 seeded bugs.
func BenchmarkSDVSampleBugs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.RunSDVComparison()
		if err != nil {
			b.Fatal(err)
		}
		if cmp.SampleSDVFindings != 8 || cmp.SampleDDTBugs != 8 {
			b.Fatalf("sample bugs: SDV %d / DDT %d, want 8 / 8", cmp.SampleSDVFindings, cmp.SampleDDTBugs)
		}
		if i == 0 {
			b.Logf("\n%s", cmp.Format())
		}
	}
}

// BenchmarkSDVSyntheticBugs regenerates the §5.1 synthetic-bug comparison:
// SDV finds 2 of 5 plus one false positive; DDT finds all 5 with none.
func BenchmarkSDVSyntheticBugs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.RunSDVComparison()
		if err != nil {
			b.Fatal(err)
		}
		if cmp.SynSDVReal != 2 || cmp.SynSDVFalse != 1 {
			b.Fatalf("SDV on synthetics: %d real + %d FP, want 2 + 1", cmp.SynSDVReal, cmp.SynSDVFalse)
		}
		if cmp.SynDDTBugs != 5 || cmp.SynDDTFalse != 0 {
			b.Fatalf("DDT on synthetics: %d real + %d FP, want 5 + 0", cmp.SynDDTBugs, cmp.SynDDTFalse)
		}
	}
}

// BenchmarkAnnotationAblation regenerates the §5.1 annotation experiment:
// with annotations off, races survive, leaks and segfaults are lost.
func BenchmarkAnnotationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablation()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.NoAnnot["resource leak"] != 0 || r.NoAnnot["segmentation fault"] != 0 {
				b.Fatalf("%s: leak/segfault found without annotations", r.Driver)
			}
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatAblation(rows))
		}
	}
}

// BenchmarkStateForkMemory measures the chained copy-on-write state
// representation (§4.1.3, §5.2's memory ceiling): deep fork chains share
// pages, so per-state cost stays far below a full snapshot.
func BenchmarkStateForkMemory(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mem := vm.NewMemory()
		mem.WriteBytes(0x100000, make([]byte, 64<<10)) // 64 KiB image
		cur := mem
		for d := 0; d < 64; d++ {
			cur = cur.Fork()
			// Each state dirties one page — the typical per-path write set.
			cur.WriteBytes(0x200000+uint32(d)*vm.PageSize, []byte{1, 2, 3, 4})
		}
		if cur.Depth() != 64 {
			b.Fatal("bad depth")
		}
	}
}

// BenchmarkSDVAnalysisOnly measures the static analyzer alone.
func BenchmarkSDVAnalysisOnly(b *testing.B) {
	img, err := corpus.Build("ddk-sample", corpus.Buggy)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := sdv.Analyze(img)
		if len(rep.Findings) != 8 {
			b.Fatal("findings changed")
		}
	}
}

// BenchmarkFullRunRTL8029 is the end-to-end cost of one complete DDT
// session on the smallest driver ("a few minutes" of paper time; here
// deterministic simulated time).
func BenchmarkFullRunRTL8029(b *testing.B) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(img, core.DefaultOptions())
		if _, err := eng.TestDriver(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFuzzWarmExec measures the steady-state cost of one warm fuzz
// execution, free of campaign start-up: a deterministic single-worker
// rtl8029 campaign supplies its corpus feeds, one persistent executor
// warms a private snapshot fabric on them, and each benchmark op is
// warmExecPasses passes of that executor over every feed. Reported: us/exec
// (wall per execution) and, with -benchmem, allocs/op (per op over the
// fixed feed list), so even a short -benchtime measures hundreds of warm
// executions and not set-up.
func BenchmarkFuzzWarmExec(b *testing.B) {
	const warmExecPasses = 50
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		b.Fatal(err)
	}
	cfg := fuzz.DefaultConfig()
	cfg.Workers = 1
	cfg.MaxExecs = 2_000
	cfg.Seed = 1
	cfg.Persist = true
	f := fuzz.New(img, cfg)
	rep, err := f.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	feeds := f.Corpus().Snapshot()
	opts := rep.Exec
	opts.Fabric = fuzz.NewSnapFabric()
	e := fuzz.NewExecutor(img, nil, opts)
	warm := 0
	for _, feed := range feeds {
		e.Run(feed) // record the boot snapshots
	}
	for _, feed := range feeds {
		if e.Run(feed).Warm {
			warm++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for p := 0; p < warmExecPasses; p++ {
			for _, feed := range feeds {
				e.Run(feed)
			}
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(elapsed.Nanoseconds())/1e3/float64(b.N*warmExecPasses*len(feeds)), "us/exec")
	b.ReportMetric(float64(len(feeds)), "feeds")
	b.ReportMetric(float64(warm)/float64(len(feeds)), "warm-share")
}

// BenchmarkStepLoopConcrete measures the interpreter's concrete hot path:
// a long straight-line ALU loop stepped to completion, per-instruction
// dispatch versus superblock dispatch (vm.Machine.StepSpan over the
// precomputed span table). The headline metrics are ns/instr-general and
// ns/instr-superblock — the per-instruction cost each mode pays on purely
// concrete spans — plus their ratio. Bit-identity between the two modes is
// proved by the vm superblock suite; this benchmark tracks the speed gap.
func BenchmarkStepLoopConcrete(b *testing.B) {
	// 32 ALU ops per iteration + loop control, 2000 iterations: ~68k
	// concrete instructions per program run, re-entering one superblock
	// from a block start every iteration.
	var sb strings.Builder
	sb.WriteString(".entry e\n.text\ne:\n    movi r0, 0\n    movi r1, 0\n    movi r2, 2000\nloop:\n")
	for j := 0; j < 8; j++ {
		sb.WriteString("    addi r3, r0, 7\n    xori r4, r3, 0xAA\n    shli r5, r4, 3\n")
		sb.WriteString("    sub  r6, r5, r3\n    andi r7, r6, 0xFFF\n    add  r0, r0, r7\n")
	}
	sb.WriteString("    addi r1, r1, 1\n    bltu r1, r2, loop\n    ret\n")
	img, err := asm.Assemble(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	perInstr := map[bool]float64{}
	for _, disable := range []bool{false, true} {
		name := "superblock"
		if disable {
			name = "general"
		}
		b.Run(name, func(b *testing.B) {
			m := vm.NewMachine(img, expr.NewSymbolTable(), solver.New())
			m.DisableSuperblocks = disable
			var instrs uint64
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				s := m.NewRootState()
				s.PC = img.Entry
				s.SetReg(isa.LR, expr.Const(vm.ExitAddr))
				m.MarkBlockStart(s)
				final, forked, err := m.Run(s, 1_000_000)
				if err != nil || len(forked) != 0 {
					b.Fatalf("run: err=%v forks=%d", err, len(forked))
				}
				if final.Status != vm.StatusExited {
					b.Fatalf("status %v", final.Status)
				}
				instrs += final.ICount
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(instrs)
			perInstr[disable] = ns
			b.ReportMetric(ns, "ns/instr")
		})
	}
	if perInstr[false] > 0 && perInstr[true] > 0 {
		b.Logf("concrete step loop: superblock %.1f ns/instr, general %.1f ns/instr (%.2fx)",
			perInstr[false], perInstr[true], perInstr[true]/perInstr[false])
	}
}

// BenchmarkFuzzSharedSnapshotFabric measures a 4-worker persistent
// campaign over the campaign-wide snapshot fabric. Reported: us/exec
// (lower is better — the gate-tracked form), the number of cold boots the
// fleet paid (cold-execs), and the cross-worker hit count. The fabric pays
// for each hot boot prefix roughly once, however many workers resume it.
func BenchmarkFuzzSharedSnapshotFabric(b *testing.B) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		b.Fatal(err)
	}
	cfg := fuzz.DefaultConfig()
	cfg.Workers = 4
	cfg.MaxExecs = 6_000
	cfg.MinimizeBudget = 1
	cfg.Persist = true
	var elapsed time.Duration
	var cold, hits float64
	var execs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rep, err := fuzz.New(img, cfg).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		cold += float64(rep.ColdExecs)
		hits += float64(rep.SnapSharedHits)
		execs += rep.Execs
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(elapsed.Microseconds())/float64(execs), "us/exec-shared")
	b.ReportMetric(cold/n, "cold-execs-shared")
	b.ReportMetric(hits/n, "shared-hits")
	b.Logf("4-worker persistent campaign: shared fabric %d cold boots (%d cross-worker hits)",
		uint64(cold/n), uint64(hits/n))
}

// BenchmarkFullRunPro1000 is BenchmarkFullRunRTL8029 for the largest driver.
func BenchmarkFullRunPro1000(b *testing.B) {
	img, err := corpus.Build("intel-pro1000", corpus.Buggy)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(img, core.DefaultOptions())
		if _, err := eng.TestDriver(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreParallelSpeedup measures the parallel symbolic engine's
// scaling curve: a full rtl8029 session at 1, 2, and 4 workers, with the
// per-count wall clock and the speedup-vs-sequential reported as metrics
// (workers=1 is the deterministic sequential engine; the parallel runs
// share one solver query cache). The speedup-at-4 metric is the headline:
// on a multi-core host it should exceed 1.5x; on a single-CPU host
// (GOMAXPROCS=1) no wall-clock speedup is physically possible and the
// metrics report the concurrency overhead instead. This benchmark is one
// of the two the CI bench regression gate tracks (cmd/benchgate).
func BenchmarkExploreParallelSpeedup(b *testing.B) {
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4}
	session := func(workers int) time.Duration {
		opts := core.DefaultOptions()
		opts.Workers = workers
		eng := core.NewEngine(img, opts)
		start := time.Now()
		if _, err := eng.TestDriver(context.Background()); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	elapsed := map[int]time.Duration{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range counts {
			elapsed[w] += session(w)
		}
	}
	b.StopTimer()
	seq := elapsed[1]
	for _, w := range counts[1:] {
		b.ReportMetric(float64(seq)/float64(elapsed[w]), fmt.Sprintf("speedup@%dworkers", w))
	}
	b.ReportMetric(float64(seq.Milliseconds())/float64(b.N), "ms/seq-session")
	b.ReportMetric(float64(elapsed[4].Milliseconds())/float64(b.N), "ms/4worker-session")
	b.Logf("GOMAXPROCS=%d: sequential %v, 4 workers %v",
		runtime.GOMAXPROCS(0), seq/time.Duration(b.N), elapsed[4]/time.Duration(b.N))
}
