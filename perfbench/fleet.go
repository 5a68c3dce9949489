package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"runtime"
	"sync"
	"time"

	"repro/internal/fuzz"
	"repro/internal/manager"
)

// Fleet is the fleet-loopback workload: an in-process ddtd manager over
// httptest loopback with its state in a fresh directory, and Workers
// one-shot manager.RunWorker clients with one fuzzing proc each working
// through fixed-budget fuzz slots with persistent mode set explicitly.
type Fleet struct {
	// Each driver gets Slots fuzz slots, each with the driver's Execs
	// budget. Slot k runs campaign seed Seed+k, a fixed panel as in
	// fuzz-hunt.
	Drivers []string
	Slots   int
	Execs   map[string]uint64
	Seed    int64
	Workers int
	// Expected returns the bug classes the fleet must find on a driver.
	Expected func(driver string) []string
}

func defaultFleet() *Fleet {
	return &Fleet{
		Drivers:  []string{"rtl8029", "intel-pro1000"},
		Slots:    2,
		Execs:    map[string]uint64{"rtl8029": 14000, "intel-pro1000": 3000},
		Seed:     1,
		Workers:  2,
		Expected: expectedBugs,
	}
}

// rpcRoutes are the worker RPC routes, in report order.
var rpcRoutes = []string{"connect", "poll", "sync", "report"}

// fleetObs collects what the RPC wrappers observe; all fields are guarded
// by mu (the two workers and the server goroutines share it).
type fleetObs struct {
	mu     sync.Mutex
	bytes  int64
	gaps   time.Duration
	blocks map[string]map[uint32]bool // reported covered blocks per driver
}

// rpcTransport wraps one worker's HTTP transport: it records a span per
// RPC, counts bytes both ways, and reads the report and poll bodies for
// the covered-block deltas and lease hand-offs.
type rpcTransport struct {
	base http.RoundTripper
	rec  *Lane // the worker goroutine's lane
	obs  *fleetObs
	// lastFinal is when this worker's last final report returned (zero
	// when none is pending a next lease). Only the worker's own goroutine
	// issues RPCs, so it needs no lock.
	lastFinal time.Time
}

func (t *rpcTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := path.Base(req.URL.Path)
	var body []byte
	if req.Body != nil {
		b, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		body = b
		req.Body = io.NopCloser(bytes.NewReader(b))
	}
	id := t.rec.Begin("rpc." + route)
	resp, err := t.base.RoundTrip(req)
	var out []byte
	if err == nil {
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(out))
	}
	t.rec.End(id)
	end := time.Now()
	if err != nil {
		return nil, err
	}

	t.obs.mu.Lock()
	defer t.obs.mu.Unlock()
	t.obs.bytes += int64(len(body) + len(out))
	switch route {
	case "report":
		var rr manager.ReportRequest
		if json.Unmarshal(body, &rr) == nil {
			set := t.obs.blocks[rr.Driver]
			if set == nil {
				set = make(map[uint32]bool)
				t.obs.blocks[rr.Driver] = set
			}
			for _, pc := range rr.NewBlocks {
				set[pc] = true
			}
			if rr.Final {
				t.lastFinal = end
			}
		}
	case "poll":
		var pr manager.PollResponse
		if json.Unmarshal(out, &pr) == nil && pr.Lease != nil && !t.lastFinal.IsZero() {
			t.obs.gaps += end.Sub(t.lastFinal)
			t.lastFinal = time.Time{}
		}
	}
	return resp, nil
}

// Round runs one fleet: set-up, both workers to completion, state flush,
// and the output checks.
func (w *Fleet) Round(seed int64, rec *Recorder) (*Round, error) {
	r := newRound()
	// Each slot is a one-slot campaign, and the slots of the drivers
	// interleave, so the two workers always start on different drivers.
	// The seed orders the drivers within each turn. Leasing all of one
	// driver's slots first would instead make the round's shape, and its
	// time to bugs, depend on which driver leads.
	var cfg manager.Config
	order := shuffled(len(w.Drivers), seed)
	for k := 0; k < w.Slots; k++ {
		for _, i := range order {
			d := w.Drivers[i]
			cfg.Campaigns = append(cfg.Campaigns, manager.CampaignSpec{
				ID: fmt.Sprintf("%s-%d", d, k), Driver: d, Workers: 1, Execs: w.Execs[d],
				Seed: w.Seed + int64(k), Persist: true,
			})
		}
	}
	// Set-up is the manager start only: the workers build their images
	// (through corpus.Build's cache) and executors per lease, inside the
	// timed work, as ddtd workers do.
	t := time.Now()
	dir, err := os.MkdirTemp(stateDir, "ddtd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	state, err := manager.OpenState(dir)
	if err != nil {
		return nil, err
	}
	sched, err := manager.NewScheduler(cfg, 0)
	if err != nil {
		return nil, err
	}
	handler := manager.NewManager(state, sched).Handler()
	if rec != nil {
		inner := handler
		handler = http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			lane := rec.Lane() // each request runs on its own goroutine
			defer lane.End(lane.Begin("server." + path.Base(req.URL.Path)))
			inner.ServeHTTP(rw, req)
		})
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	r.Setup.Manager = time.Since(t)
	obs := &fleetObs{blocks: make(map[string]map[uint32]bool)}

	want := make(map[string]bool)
	for _, d := range w.Drivers {
		for c := range classSet(w.Expected(d)) {
			want[d+"|"+c] = true
		}
	}
	classes := func() []string {
		var out []string
		for _, e := range state.Crashes("") {
			out = append(out, e.Driver+"|"+e.Class)
		}
		return out
	}

	runtime.GC() // start the fleet from a collected heap
	cpu0 := cpuTime()
	start := time.Now()
	wt := watch(want, classes)
	errs := make([]error, w.Workers)
	var wg sync.WaitGroup
	for i := 0; i < w.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = manager.RunWorker(context.Background(), manager.WorkerConfig{
				Manager: srv.URL,
				Name:    fmt.Sprintf("w%d", i+1),
				Procs:   1,
				OneShot: true,
				HTTP: &http.Client{Timeout: 30 * time.Second, Transport: &rpcTransport{
					base: srv.Client().Transport, rec: rec.Lane(), obs: obs,
				}},
			})
		}(i)
	}
	wg.Wait()
	found, ok := wt.done(classes, want)
	t = time.Now()
	flushErr := state.Flush()
	flush := time.Since(t)
	r.Wall = time.Since(start)
	r.CPU = cpuTime() - cpu0

	// Checks: every slot completed, one entry per crash key, every held
	// reproducer replays, every expected class found. The replay
	// executors and the images for the static leaders are built here,
	// after the timed work.
	imgs, err := assemble(w.Drivers)
	if err != nil {
		return nil, err
	}
	replayers := make(map[string]*fuzz.Executor)
	for _, d := range w.Drivers {
		replayers[d] = fuzz.NewExecutor(imgs[d], nil, fuzz.DefaultOptions())
	}
	for i, err := range errs {
		r.Attempted++
		if err != nil {
			r.fail("fleet-loopback worker %d: %v", i+1, err)
		}
	}
	r.Attempted++
	if flushErr != nil {
		r.fail("fleet-loopback state flush: %v", flushErr)
	}
	camps, _ := sched.Status()
	for _, c := range camps {
		r.Attempted += c.Slots
		if c.Done != c.Slots {
			for k := c.Done; k < c.Slots; k++ {
				r.fail("fleet-loopback campaign %s: slot not completed (%d of %d done)", c.ID, c.Done, c.Slots)
			}
		}
	}
	keys := make(map[string]bool)
	for _, e := range state.Crashes("") {
		r.Attempted++
		k := e.Driver + "|" + e.Key
		if keys[k] {
			r.fail("fleet-loopback %s: duplicate crash key %s", e.Driver, e.Key)
			continue
		}
		keys[k] = true
		ex := replayers[e.Driver]
		if ex == nil || len(e.Reproducers) == 0 {
			r.fail("fleet-loopback %s: crash %s has no replayable reproducer", e.Driver, e.Key)
			continue
		}
		for _, rp := range e.Reproducers {
			if res := ex.Run(rp.Feed); res.Crash == nil || res.Crash.Key() != e.Key {
				r.fail("fleet-loopback %s: reproducer %s of %s does not replay", e.Driver, rp.Hash, e.Key)
				break
			}
		}
	}
	r.Attempted++
	if !ok {
		r.fail("fleet-loopback: expected classes missing, have %s", describe(classes()))
	}

	var execs, instrs uint64
	for _, s := range state.Summaries() {
		execs += s.Execs
		instrs += s.Instructions
	}
	paths := 0
	for _, d := range w.Drivers {
		paths += len(state.CorpusEntries(d))
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	blocks, nonLeaders := countLeaders(obs.blocks, imgs)
	wall := r.Wall.Seconds()
	r.Values["paths_per_s"] = float64(paths) / wall
	r.Values["execs_per_s"] = float64(execs) / wall
	r.Values["time_to_bugs_s"] = found.Seconds()
	r.Values["blocks_covered"] = float64(blocks)
	if rec == nil {
		return r, nil
	}

	layers := rec.Layers()
	var client, server time.Duration
	for _, route := range rpcRoutes {
		var durs []time.Duration
		if ls := layers["rpc."+route]; ls != nil {
			durs = ls.Durs
		}
		client += SelfSum(layers, "rpc."+route)
		srvSelf := SelfSum(layers, "server."+route)
		server += srvSelf
		r.Values["manager.rpc_calls."+route] = float64(len(durs))
		r.Values["manager.rpc_p50_ms."+route] = ms(percentile(durs, 0.50))
		r.Values["manager.rpc_p99_ms."+route] = ms(percentile(durs, 0.99))
		r.Values["manager.server_s."+route] = srvSelf.Seconds()
	}
	r.Values["manager.rpc_wait_s"] = (client - server).Seconds()
	if execs > 0 {
		r.Values["manager.bytes_per_exec"] = float64(obs.bytes) / float64(execs)
	}
	r.Values["manager.lease_gap_s"] = obs.gaps.Seconds()
	r.Values["manager.flush_s"] = flush.Seconds()
	r.Values["fuzz.instrs_per_exec"] = ratio(instrs, execs)
	r.Values["fuzz.nonleader_blocks"] = float64(nonLeaders)
	lane := client.Seconds() / float64(w.Workers)
	r.Values["fleet.rpc_lane_s"] = lane
	r.Values["fleet.residual_s"] = wall - lane - flush.Seconds()
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
