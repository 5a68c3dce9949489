package manager

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fuzz"
)

// WorkerConfig configures one ddtfuzz -manager worker process.
type WorkerConfig struct {
	// Manager is the manager's base URL (http://host:port).
	Manager string
	// Name is the worker's self-chosen name (defaults to host-pid style;
	// the manager uniquifies it).
	Name string
	// Procs is the local fuzzing goroutine count per lease (default 4).
	Procs int
	// PollInterval / SyncInterval override the manager-advertised cadences
	// (tests use milliseconds; 0 keeps the server's values).
	PollInterval time.Duration
	SyncInterval time.Duration
	// MaxBackoff caps the exponential retry backoff for failed RPCs
	// (default 30s).
	MaxBackoff time.Duration
	// OneShot makes RunWorker return after the first completed lease plus
	// one idle poll — CI attaches workers for a bounded job rather than a
	// daemon.
	OneShot bool
	// Logf receives progress lines (default: drop them).
	Logf func(format string, args ...any)
	// HTTP overrides the RPC client (default: 30s timeout).
	HTTP *http.Client
}

// Client speaks the worker side of the manager RPC protocol.
type Client struct {
	base     string
	http     *http.Client
	workerID string
}

// NewClient returns an RPC client for the manager at base URL.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{base: strings.TrimRight(base, "/"), http: hc}
}

// call POSTs one JSON RPC. Non-200 answers surface the server's error body.
func (c *Client) call(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.http.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		var e errorResponse
		b, _ := io.ReadAll(io.LimitReader(hresp.Body, 4096))
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			return fmt.Errorf("manager: %s: %s", path, e.Error)
		}
		return fmt.Errorf("manager: %s: HTTP %d", path, hresp.StatusCode)
	}
	return json.NewDecoder(hresp.Body).Decode(resp)
}

// Connect registers with the manager and stores the assigned worker ID.
func (c *Client) Connect(ctx context.Context, name string) (*ConnectResponse, error) {
	var resp ConnectResponse
	if err := c.call(ctx, PathConnect, &ConnectRequest{Worker: name}, &resp); err != nil {
		return nil, err
	}
	c.workerID = resp.WorkerID
	return &resp, nil
}

// Poll asks for work.
func (c *Client) Poll(ctx context.Context) (*CampaignLease, error) {
	var resp PollResponse
	if err := c.call(ctx, PathPoll, &PollRequest{WorkerID: c.workerID}, &resp); err != nil {
		return nil, err
	}
	return resp.Lease, nil
}

// Report sends results; any report renews the lease.
func (c *Client) Report(ctx context.Context, req *ReportRequest) (*ReportResponse, error) {
	req.WorkerID = c.workerID
	var resp ReportResponse
	if err := c.call(ctx, PathReport, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Sync exchanges corpus deltas; any sync renews the lease.
func (c *Client) Sync(ctx context.Context, req *SyncRequest) (*SyncResponse, error) {
	req.WorkerID = c.workerID
	var resp SyncResponse
	if err := c.call(ctx, PathSync, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// RunWorker is the ddtfuzz -manager main loop: connect (with retry),
// poll for leases, execute them, sync and report until the context is
// canceled. Cancellation is the graceful-shutdown path: an in-flight
// campaign is stopped, its final report sent, and RunWorker returns.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Procs < 1 {
		cfg.Procs = 4
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := NewClient(cfg.Manager, cfg.HTTP)

	// Connect, with exponential backoff: the worker may start before the
	// manager finishes binding its listener.
	var conn *ConnectResponse
	err := withBackoff(ctx, cfg.MaxBackoff, func() error {
		var err error
		conn, err = c.Connect(ctx, cfg.Name)
		return err
	})
	if err != nil {
		return fmt.Errorf("manager: connect: %w", err)
	}
	poll := time.Duration(conn.PollIntervalMS) * time.Millisecond
	sync := time.Duration(conn.SyncIntervalMS) * time.Millisecond
	if cfg.PollInterval > 0 {
		poll = cfg.PollInterval
	}
	if cfg.SyncInterval > 0 {
		sync = cfg.SyncInterval
	}
	cfg.Logf("connected to %s as %s", cfg.Manager, c.workerID)

	completed := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		var lease *CampaignLease
		err := withBackoff(ctx, cfg.MaxBackoff, func() error {
			var err error
			lease, err = c.Poll(ctx)
			return err
		})
		if err != nil {
			return nil // context canceled while idle
		}
		if lease == nil {
			if cfg.OneShot && completed > 0 {
				return nil
			}
			if !sleepCtx(ctx, poll) {
				return nil
			}
			continue
		}
		cfg.Logf("lease %s: %s %s (slot %d)", lease.LeaseID, lease.Mode, lease.Driver, lease.Slot)
		var lerr error
		switch lease.Mode {
		case ModeSymbolic:
			lerr = c.runSymbolicLease(ctx, cfg, lease, sync)
		default:
			lerr = c.runFuzzLease(ctx, cfg, lease, sync)
		}
		if lerr != nil {
			// A lease this worker cannot execute (unknown driver, build
			// failure) is left to expire and be re-issued elsewhere.
			cfg.Logf("lease %s failed: %v", lease.LeaseID, lerr)
			if !sleepCtx(ctx, poll) {
				return nil
			}
			continue
		}
		completed++
	}
}

// runFuzzLease executes one fuzz-mode lease: a local campaign with the
// manager's corpus as seeds, a sync/report loop at the advertised cadence,
// and a final report carrying the full triaged crash set.
func (c *Client) runFuzzLease(ctx context.Context, cfg WorkerConfig, lease *CampaignLease, syncEvery time.Duration) error {
	img, err := corpus.Build(lease.Driver, variantOf(lease.Fixed))
	if err != nil {
		return err
	}
	fcfg := fuzz.DefaultConfig()
	fcfg.Workers = cfg.Procs
	fcfg.MaxExecs = lease.Execs
	fcfg.Duration = time.Duration(lease.DurationMS) * time.Millisecond
	fcfg.Seed = lease.Seed
	fcfg.Persist = lease.Persist
	fcfg.Dict = lease.Dict
	fcfg.Seeds = lease.Seeds
	f := fuzz.New(img, fcfg)

	// Delta bookkeeping: what this worker already exchanged with the fleet.
	have := make(map[string]bool)
	for _, s := range lease.Seeds {
		have[FeedHash(s)] = true
	}
	sentCrash := make(map[string]bool)
	sentBlocks := make(map[uint32]bool)
	static := f.Cov.TotalStatic

	// The campaign context: canceled when the manager directs a stop
	// (scheduler rebalance) or the worker itself shuts down. Cancellation is
	// the only stop path — the fuzzer quiesces and Run returns.
	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()

	type result struct {
		rep *fuzz.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := f.Run(runCtx)
		done <- result{rep, err}
	}()

	// interrupted is set when the worker is shut down mid-campaign: the
	// final flush then still ships every result, but without the Final flag —
	// the slot's remaining budget was not spent, so the lease is left to
	// expire and the campaign re-issued to a surviving worker.
	interrupted := false

	flush := func(ctx context.Context, final bool) error {
		// Corpus delta, both directions.
		var added []fuzz.Entry
		haveList := make([]string, 0, len(have))
		for h := range have {
			haveList = append(haveList, h)
		}
		for _, e := range f.Corpus().Export() {
			if h := FeedHash(e.Feed); !have[h] {
				have[h] = true
				haveList = append(haveList, h)
				added = append(added, e)
			}
		}
		sresp, err := c.Sync(ctx, &SyncRequest{LeaseID: lease.LeaseID, Driver: lease.Driver, Added: added, Have: haveList})
		if err != nil {
			return err
		}
		var fresh []*fuzz.Feed
		for _, s := range sresp.Seeds {
			if h := FeedHash(s); !have[h] {
				have[h] = true
				fresh = append(fresh, s)
			}
		}
		if len(fresh) > 0 && !final {
			f.InjectSeeds(fresh)
		}

		// Results: new crashes, the coverage delta, progress counters.
		var crashes []CrashReport
		for _, cr := range f.Crashes() {
			if final || !sentCrash[cr.Key()] {
				sentCrash[cr.Key()] = true
				crashes = append(crashes, CrashReport{Crash: cr})
			}
		}
		var newBlocks []uint32
		for _, pc := range f.Cov.CoveredBlocks() {
			if !sentBlocks[pc] {
				sentBlocks[pc] = true
				newBlocks = append(newBlocks, pc)
			}
		}
		execs, instrs := f.Stats()
		rresp, err := c.Report(ctx, &ReportRequest{
			LeaseID:      lease.LeaseID,
			Driver:       lease.Driver,
			Final:        final && !interrupted,
			Crashes:      crashes,
			NewBlocks:    newBlocks,
			BlocksStatic: static,
			Execs:        execs,
			Instructions: instrs,
		})
		if err != nil {
			return err
		}
		if (sresp.Stop || rresp.Stop) && !final {
			stopRun()
		}
		return nil
	}

	ticker := time.NewTicker(syncEvery)
	defer ticker.Stop()
	var res result
wait:
	for {
		select {
		case <-ctx.Done():
			// Graceful shutdown: runCtx inherits the cancellation, so the
			// campaign is already quiescing — wait for the workers to drain,
			// then send the final report below.
			res = <-done
			break wait
		case <-ticker.C:
			if err := flush(ctx, false); err != nil {
				cfg.Logf("sync failed (will retry): %v", err)
			}
		case res = <-done:
			break wait
		}
	}
	// Worker shutdown, not a manager-directed stop: the select may observe
	// the drained campaign before the canceled context, so decide from the
	// context itself.
	if ctx.Err() != nil {
		interrupted = true
	}
	if res.err != nil {
		return res.err
	}
	// Campaign finished (budget exhausted, Stop, or shutdown): the final
	// report re-sends the complete crash set — mid-campaign reports carry
	// the crash as first found; by now every entry holds its minimized,
	// verification-replayed feed, which the manager attaches as an extra
	// reproducer (dedup by content hash keeps exactly the distinct ones).
	// The final flush must survive a canceled worker context.
	fctx := ctx
	if fctx.Err() != nil {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
	}
	return withBackoff(fctx, 5*time.Second, func() error {
		return flush(fctx, true)
	})
}

// runSymbolicLease executes one symbolic-mode lease: an engine session,
// heartbeating while it runs, and a final report converting every bug into
// a crash entry with a bridge-derived reproducer feed.
func (c *Client) runSymbolicLease(ctx context.Context, cfg WorkerConfig, lease *CampaignLease, syncEvery time.Duration) error {
	img, err := corpus.Build(lease.Driver, variantOf(lease.Fixed))
	if err != nil {
		return err
	}
	eng := core.NewEngine(img, core.DefaultOptions())

	type result struct {
		rep *core.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := eng.TestDriver(ctx)
		done <- result{rep, err}
	}()

	ticker := time.NewTicker(syncEvery)
	defer ticker.Stop()
	ctxDone := ctx.Done()
	var res result
wait:
	for {
		select {
		case <-ctxDone:
			// The engine observes the context mid-run and returns its
			// partial report; wait for that result below. Disarm the channel
			// so the wait doesn't spin on the closed Done.
			ctxDone = nil
		case <-ticker.C:
			if _, err := c.Report(ctx, &ReportRequest{LeaseID: lease.LeaseID, Driver: lease.Driver}); err != nil {
				cfg.Logf("heartbeat failed (will retry): %v", err)
			}
			continue
		case res = <-done:
			break wait
		}
	}
	if res.err != nil {
		return res.err
	}
	var crashes []CrashReport
	for _, b := range res.rep.Bugs {
		crashes = append(crashes, CrashReport{Crash: &fuzz.Crash{
			Class:       b.Class,
			PC:          b.Fault.PC,
			Site:        b.Site,
			Entry:       b.Entry,
			Msg:         b.Fault.Msg,
			InInterrupt: b.InInterrupt,
			Feed:        fuzz.FromBug(b),
			Reproduced:  true,
		}})
	}
	fctx := ctx
	if fctx.Err() != nil {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
	}
	return withBackoff(fctx, 5*time.Second, func() error {
		_, err := c.Report(fctx, &ReportRequest{
			LeaseID:      lease.LeaseID,
			Driver:       lease.Driver,
			Final:        true,
			Crashes:      crashes,
			NewBlocks:    eng.Cov.CoveredBlocks(),
			BlocksStatic: eng.Cov.TotalStatic,
			Execs:        uint64(res.rep.PathsExplored),
			Instructions: res.rep.Instructions,
		})
		return err
	})
}

func variantOf(fixed bool) corpus.Variant {
	if fixed {
		return corpus.Fixed
	}
	return corpus.Buggy
}

// withBackoff retries fn with exponential backoff (100ms doubling to max)
// until it succeeds or the context ends; the returned error is non-nil only
// when the context ended (it is the last fn error).
func withBackoff(ctx context.Context, max time.Duration, fn func() error) error {
	delay := 100 * time.Millisecond
	for {
		err := fn()
		if err == nil {
			return nil
		}
		if !sleepCtx(ctx, delay) {
			return err
		}
		if delay *= 2; delay > max {
			delay = max
		}
	}
}

// sleepCtx sleeps d, reporting false if the context ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
