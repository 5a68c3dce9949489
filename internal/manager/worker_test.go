package manager

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/fuzz"
	"repro/internal/vm"
)

// startManager spins up a full manager (in-memory state) over real HTTP.
func startManager(t *testing.T, cfg Config, ttl time.Duration) (*Manager, *httptest.Server) {
	t.Helper()
	state, err := OpenState("")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler(cfg, ttl)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(state, sched)
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(srv.Close)
	return m, srv
}

func workerCfg(srv *httptest.Server, name string) WorkerConfig {
	return WorkerConfig{
		Manager:      srv.URL,
		Name:         name,
		Procs:        2,
		PollInterval: 50 * time.Millisecond,
		SyncInterval: 100 * time.Millisecond,
		OneShot:      true,
	}
}

// TestFleetMatchesSingleProcess is the headline acceptance check: two
// ddtfuzz -manager workers attached to one ddtd, fuzzing rtl8029 with the
// same budget and seeds as a single-process campaign, find (at least) the
// same bug set — and the manager holds exactly one crash entry per
// deduplicated key, however many workers hit it.
func TestFleetMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet campaign in -short mode")
	}
	const budget = 5_000

	// Reference: the single-process campaign (same as the fuzz package's
	// tier-1 end-to-end test).
	img, err := corpus.Build("rtl8029", corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := fuzz.DefaultConfig()
	fcfg.Workers = 2
	fcfg.MaxExecs = budget
	fcfg.Seed = 1
	single, err := fuzz.New(img, fcfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	singleClasses := single.CountByClass()
	if len(singleClasses) == 0 {
		t.Fatal("single-process reference found nothing; budget too small")
	}

	// Fleet: one campaign, two slots of the same budget (slot seeds 1 and
	// 2), two worker processes.
	cfg := Config{Campaigns: []CampaignSpec{
		{ID: "net", Driver: "rtl8029", Workers: 2, Execs: budget, Seed: 1},
	}}
	m, srv := startManager(t, cfg, time.Minute)
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if err := RunWorker(context.Background(), workerCfg(srv, name)); err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}(name)
	}
	wg.Wait()
	if !m.Sched.Done() {
		t.Fatal("fleet campaign did not complete every slot")
	}

	crashes := m.State.Crashes("rtl8029")
	if len(crashes) == 0 {
		t.Fatal("fleet found no crashes")
	}
	// No duplicate crash entries fleet-wide.
	keys := make(map[string]bool)
	fleetClasses := make(map[string]bool)
	for _, e := range crashes {
		if keys[e.Key] {
			t.Fatalf("crash key %s has two entries (fleet dedup broken)", e.Key)
		}
		keys[e.Key] = true
		fleetClasses[e.Class] = true
		if len(e.Reproducers) == 0 || e.Reproducers[0].Feed == nil {
			t.Fatalf("crash %s has no reproducer feed", e.Key)
		}
		// Every served reproducer must replay to the same dedup key.
		res := fuzz.NewExecutor(img, nil, fuzz.DefaultOptions()).Run(e.Reproducers[0].Feed)
		if res.Crash == nil || res.Crash.Key() != e.Key {
			t.Errorf("crash %s: manager-held reproducer did not replay", e.Key)
		}
	}
	// The fleet ran the reference campaign as slot 0 (same seed, same
	// budget) plus a second slot and corpus sharing: it must cover the
	// single-process bug set.
	for class := range singleClasses {
		if !fleetClasses[class] {
			t.Errorf("single-process class %q missing from fleet results %v", class, fleetClasses)
		}
	}
	// Progress counters merged: the fleet ran 2 slots of the budget.
	sums := m.State.Summaries()
	if len(sums) != 1 || sums[0].Execs < budget {
		t.Fatalf("fleet summaries = %+v, want >= %d execs merged", sums, budget)
	}
}

// TestFleetSymbolicSlot runs one symbolic-mode slot end to end: a config
// as ddtd loads it (a campaign file written for the removed pipelined mode
// still carries "pipeline": true, and one written for the removed engine
// worker count "engine_workers"; both must keep loading), handed out
// through the scheduler to one one-shot worker that runs the barriered
// engine. The slot completes and the merged crash set holds exactly
// rtl8029's Table 2 classes.
func TestFleetSymbolicSlot(t *testing.T) {
	const raw = `{"campaigns": [{"id": "sym", "driver": "rtl8029", "mode": "symbolic",
		"engine_workers": 2, "pipeline": true}]}`
	var cfg Config
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		t.Fatal(err)
	}
	m, srv := startManager(t, cfg, time.Minute)
	if err := RunWorker(context.Background(), workerCfg(srv, "w1")); err != nil {
		t.Fatal(err)
	}
	if !m.Sched.Done() {
		t.Fatal("symbolic slot did not complete")
	}

	spec, _ := corpus.Get("rtl8029")
	want := make(map[string]bool)
	for _, c := range spec.ExpectedBugs {
		want[c] = true
	}
	got := make(map[string]bool)
	for _, e := range m.State.Crashes("rtl8029") {
		got[e.Class] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet crash classes = %v, want rtl8029's Table 2 classes %v", got, want)
	}
}

// TestFleetKeysSymbolicAndFuzzAlike: a bug reported by a symbolic lease and
// the same bug reported by a fuzz executor land in one fleet crash entry.
// A worker runs a symbolic slot on ddk-sample-synthetic; each entry's
// reproducer feed is then replayed through an executor, and a crash with
// the same fault (class, fault PC, entry) is added the way a fuzz worker
// reports it. It must join the symbolic entry, including the bug whose
// fault lies outside driver text (a return to ExitAddr with a spinlock
// held), so the store ends with exactly one entry per fault.
func TestFleetKeysSymbolicAndFuzzAlike(t *testing.T) {
	const driver = "ddk-sample-synthetic"
	cfg := Config{Campaigns: []CampaignSpec{{ID: "sym", Driver: driver, Mode: ModeSymbolic}}}
	m, srv := startManager(t, cfg, time.Minute)
	if err := RunWorker(context.Background(), workerCfg(srv, "sym")); err != nil {
		t.Fatal(err)
	}
	if !m.Sched.Done() {
		t.Fatal("symbolic slot did not complete")
	}
	img, err := corpus.Build(driver, corpus.Buggy)
	if err != nil {
		t.Fatal(err)
	}
	outside := 0
	for _, e := range m.State.Crashes(driver) {
		if len(e.Reproducers) == 0 {
			t.Fatalf("symbolic crash %s has no reproducer feed", e.Key)
		}
		c := fuzz.NewExecutor(img, nil, fuzz.DefaultOptions()).Run(e.Reproducers[0].Feed).Crash
		if c == nil || c.Class != e.Class || c.PC != e.PC || c.Entry != e.Entry {
			continue
		}
		if e.PC == vm.ExitAddr {
			outside++
		}
		m.State.AddCrash(driver, "fuzz", c)
	}
	if outside == 0 {
		t.Fatal("no replayed symbolic bug faults outside driver text")
	}
	seen := make(map[string]string)
	for _, e := range m.State.Crashes(driver) {
		fault := fmt.Sprintf("%s@%#x in %s", e.Class, e.PC, e.Entry)
		if k, dup := seen[fault]; dup {
			t.Errorf("fault %s has two fleet entries: %s and %s", fault, k, e.Key)
		}
		seen[fault] = e.Key
	}
}

// TestWorkerLeaseReassignment kills a worker mid-campaign (it takes a
// lease and vanishes without heartbeating) and checks the campaign is
// re-issued to — and completed by — a second worker.
func TestWorkerLeaseReassignment(t *testing.T) {
	cfg := Config{Campaigns: []CampaignSpec{
		{ID: "net", Driver: "rtl8029", Workers: 1, Execs: 300, Seed: 3},
	}}
	m, srv := startManager(t, cfg, 200*time.Millisecond)

	// The doomed worker: polls the lease, then its process "crashes".
	ctx := context.Background()
	dead := NewClient(srv.URL, nil)
	if _, err := dead.Connect(ctx, "doomed"); err != nil {
		t.Fatal(err)
	}
	lease, err := dead.Poll(ctx)
	if err != nil || lease == nil {
		t.Fatalf("doomed worker got no lease: %v %+v", err, lease)
	}

	// A healthy worker attaches; it can only get the slot after the TTL
	// reaps the dead lease.
	done := make(chan error, 1)
	go func() { done <- RunWorker(ctx, workerCfg(srv, "healthy")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("healthy worker never completed the re-issued campaign")
	}
	if !m.Sched.Done() {
		t.Fatal("campaign not completed after reassignment")
	}
	camps, _ := m.Sched.Status()
	if len(camps) != 1 || camps[0].Reissues != 1 {
		t.Fatalf("campaign status = %+v, want exactly 1 reissue", camps)
	}

	// The dead worker's late final report must not corrupt the done slot,
	// but its crash evidence (if any) still merges.
	before := len(m.State.Crashes("rtl8029"))
	if _, err := dead.Report(ctx, &ReportRequest{
		LeaseID: lease.LeaseID,
		Driver:  lease.Driver,
		Final:   true,
		Crashes: []*fuzz.Crash{crash("resource leak", 0xdead, feed(0xaa))},
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(m.State.Crashes("rtl8029")); got != before+1 {
		t.Fatalf("stale crash evidence dropped: %d -> %d entries", before, got)
	}
}

// TestWorkerGracefulShutdown cancels a worker mid-campaign (the SIGINT
// path: ShutdownContext cancels exactly this way) and checks the final
// report made it out — results flushed — while the unfinished slot is left
// for reassignment rather than marked complete.
func TestWorkerGracefulShutdown(t *testing.T) {
	cfg := Config{Campaigns: []CampaignSpec{
		// A wall-clock budget far longer than the test: only shutdown ends it.
		{ID: "net", Driver: "rtl8029", Workers: 1, Duration: "1h", Seed: 1},
	}}
	m, srv := startManager(t, cfg, time.Minute)

	ctx, cancel := context.WithCancel(context.Background())
	wcfg := workerCfg(srv, "w")
	wcfg.OneShot = false
	done := make(chan error, 1)
	go func() { done <- RunWorker(ctx, wcfg) }()

	// Let it fuzz long enough to have something to report, then "SIGINT".
	deadline := time.Now().Add(10 * time.Second)
	for {
		sums := m.State.Summaries()
		if len(sums) > 0 && sums[0].Execs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never reported progress")
		}
		time.Sleep(50 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("worker did not shut down after cancel")
	}

	// The final (interrupted) report carried the campaign's results...
	sums := m.State.Summaries()
	if len(sums) != 1 || sums[0].Execs == 0 {
		t.Fatalf("no progress merged before shutdown: %+v", sums)
	}
	// ...but did not complete the slot: the campaign outlives the worker.
	if m.Sched.Done() {
		t.Fatal("interrupted worker completed its slot; the unfinished campaign is lost")
	}
}

// failFirst is an RPC transport whose first request to path fails before
// it reaches the manager.
type failFirst struct {
	path   string
	failed atomic.Bool
}

func (t *failFirst) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == t.path && t.failed.CompareAndSwap(false, true) {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("injected transport failure")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestWorkerFailedReportKeepsDeltas: a periodic report the manager never
// receives loses nothing. A one-proc campaign (deterministic) runs twice,
// once with its first report failing in transport; the manager must end
// with the same covered blocks and corpus both times.
func TestWorkerFailedReportKeepsDeltas(t *testing.T) {
	run := func(hc *http.Client) (blocks int, corpus []string) {
		cfg := Config{Campaigns: []CampaignSpec{{ID: "net", Driver: "rtl8029", Execs: 8000, Seed: 1}}}
		m, srv := startManager(t, cfg, time.Minute)
		wcfg := workerCfg(srv, "w")
		wcfg.Procs = 1
		wcfg.SyncInterval = 20 * time.Millisecond
		wcfg.HTTP = hc
		if err := RunWorker(context.Background(), wcfg); err != nil {
			t.Fatal(err)
		}
		if !m.Sched.Done() {
			t.Fatal("slot not completed")
		}
		sums := m.State.Summaries()
		if len(sums) != 1 {
			t.Fatalf("summaries = %+v, want one driver", sums)
		}
		for _, e := range m.State.CorpusEntries("rtl8029") {
			corpus = append(corpus, e.Hash)
		}
		sort.Strings(corpus)
		return sums[0].BlocksCovered, corpus
	}
	ft := &failFirst{path: PathReport}
	blocks, corpus := run(&http.Client{Timeout: 30 * time.Second, Transport: ft})
	if !ft.failed.Load() {
		t.Fatal("the worker sent no report")
	}
	wantBlocks, wantCorpus := run(nil)
	if blocks != wantBlocks {
		t.Errorf("manager holds %d blocks after a failed report, %d without", blocks, wantBlocks)
	}
	if !reflect.DeepEqual(corpus, wantCorpus) {
		t.Errorf("manager holds %d corpus entries after a failed report, %d without", len(corpus), len(wantCorpus))
	}
}

// TestWorkerInterruptedSymbolicLeaseStaysOpen: a symbolic lease run by a
// worker that is shutting down reports without completing its slot, so
// the slot is re-issued rather than lost.
func TestWorkerInterruptedSymbolicLeaseStaysOpen(t *testing.T) {
	cfg := Config{Campaigns: []CampaignSpec{{ID: "sym", Driver: "rtl8029", Mode: ModeSymbolic}}}
	m, srv := startManager(t, cfg, time.Minute)
	ctx := context.Background()
	c := NewClient(srv.URL, nil)
	if _, err := c.Connect(ctx, "w"); err != nil {
		t.Fatal(err)
	}
	lease, err := c.Poll(ctx)
	if err != nil || lease == nil {
		t.Fatalf("poll: %v %+v", err, lease)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	wcfg := workerCfg(srv, "w")
	wcfg.Logf = t.Logf
	if err := c.runLease(canceled, wcfg, lease, time.Second); err != nil {
		t.Fatal(err)
	}
	if m.Sched.Done() {
		t.Fatal("interrupted symbolic lease completed its slot")
	}
}

// TestShutdownContextSignal injects a real SIGINT and checks
// ShutdownContext cancels — the signal half of the graceful-shutdown path
// shared by ddtd and ddtfuzz. It does so twice: once a context's cancel
// has returned, a later signal must not reach its handler, which would
// read it as the second, force-exit signal.
func TestShutdownContextSignal(t *testing.T) {
	for i := 0; i < 2; i++ {
		ctx, cancel := ShutdownContext(context.Background())
		if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("SIGINT did not cancel the shutdown context")
		}
		cancel()
	}
}
