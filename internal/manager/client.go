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

	"repro/internal/binimg"
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

// Report sends results and the corpus delta; any report renews the lease.
func (c *Client) Report(ctx context.Context, req *ReportRequest) (*ReportResponse, error) {
	req.WorkerID = c.workerID
	var resp ReportResponse
	if err := c.call(ctx, PathReport, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// maxBackoff caps the exponential retry backoff for failed connects and
// polls.
const maxBackoff = 30 * time.Second

// RunWorker is the ddtfuzz -manager main loop: connect (with retry),
// poll for leases, execute them and report until the context is
// canceled. Cancellation is the graceful-shutdown path: an in-flight
// campaign is stopped, its last report sent, and RunWorker returns.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Procs < 1 {
		cfg.Procs = 4
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := NewClient(cfg.Manager, cfg.HTTP)

	// Connect, with exponential backoff: the worker may start before the
	// manager finishes binding its listener.
	var conn *ConnectResponse
	err := withBackoff(ctx, maxBackoff, func() error {
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
		err := withBackoff(ctx, maxBackoff, func() error {
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
		if err := c.runLease(ctx, cfg, lease, sync); err != nil {
			// A lease this worker cannot execute (unknown driver, build
			// failure) is left to expire and be re-issued elsewhere.
			cfg.Logf("lease %s failed: %v", lease.LeaseID, err)
			if !sleepCtx(ctx, poll) {
				return nil
			}
			continue
		}
		completed++
	}
}

// leaseJob is what one campaign mode supplies to runLease.
type leaseJob struct {
	// run executes the campaign until its budget is spent or ctx ends.
	run func(ctx context.Context) error
	// fill writes into req what the next report carries: at least every
	// result the manager has not acknowledged yet. last marks the report
	// sent after run returned. The returned function, if any, marks those
	// results as delivered; runLease calls it only once the manager has
	// answered the report.
	fill func(req *ReportRequest, last bool) (ack func())
	// seeds, if set, takes the fleet corpus feeds a report's answer
	// carried.
	seeds func([]*fuzz.Feed)
}

// runLease executes one lease: the mode's campaign on its own goroutine,
// one report per tick of the advertised cadence, and a last report once
// the campaign has returned. A manager-directed stop cancels the
// campaign. The last report completes the slot (Final) only if the worker
// context is still live: a worker shut down mid-campaign ships its
// results but leaves the slot to expire and be re-issued to a surviving
// worker, since the slot's budget was not spent.
func (c *Client) runLease(ctx context.Context, cfg WorkerConfig, lease *CampaignLease, every time.Duration) error {
	img, err := corpus.Build(lease.Driver, variantOf(lease.Fixed))
	if err != nil {
		return err
	}
	var job leaseJob
	if lease.Mode == ModeSymbolic {
		job = symbolicJob(img)
	} else {
		job = fuzzJob(img, cfg.Procs, lease)
	}

	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()
	done := make(chan error, 1)
	go func() { done <- job.run(runCtx) }()

	send := func(ctx context.Context, last, final bool) error {
		req := &ReportRequest{LeaseID: lease.LeaseID, Driver: lease.Driver, Final: final}
		ack := job.fill(req, last)
		resp, err := c.Report(ctx, req)
		if err != nil {
			return err
		}
		if ack != nil {
			ack()
		}
		if job.seeds != nil && len(resp.Seeds) > 0 {
			job.seeds(resp.Seeds)
		}
		if resp.Stop {
			stopRun()
		}
		return nil
	}

	ticker := time.NewTicker(every)
	defer ticker.Stop()
wait:
	for {
		select {
		case err = <-done:
			break wait
		case <-ctx.Done():
			// Worker shutdown: runCtx inherits the cancellation, so the
			// campaign is already winding down.
			err = <-done
			break wait
		case <-ticker.C:
			if err := send(ctx, false, false); err != nil {
				cfg.Logf("report failed (will retry): %v", err)
			}
		}
	}
	if err != nil {
		return err
	}
	// The select may observe the returned campaign before the canceled
	// context, so decide from the context itself. An interrupted worker's
	// last report must survive the canceled context.
	final := ctx.Err() == nil
	if !final {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
		defer cancel()
	}
	return withBackoff(ctx, 5*time.Second, func() error {
		return send(ctx, true, final)
	})
}

// fuzzJob runs a fuzz-mode lease: a local campaign seeded with the
// manager's corpus, whose reports carry the crash, coverage and corpus
// deltas both ways. The last report re-sends the complete crash set:
// mid-campaign reports carry each crash as first found, and by the end
// every entry holds its minimized, verification-replayed feed, which the
// manager attaches as an extra reproducer.
func fuzzJob(img *binimg.Image, procs int, lease *CampaignLease) leaseJob {
	fcfg := fuzz.DefaultConfig()
	fcfg.Workers = procs
	fcfg.MaxExecs = lease.Execs
	fcfg.Duration = time.Duration(lease.DurationMS) * time.Millisecond
	fcfg.Seed = lease.Seed
	fcfg.Persist = lease.Persist
	fcfg.Dict = lease.Dict
	fcfg.Seeds = lease.Seeds
	f := fuzz.New(img, fcfg)

	// What the manager has acknowledged: the corpus hashes both sides
	// hold, and the crashes and blocks delivered.
	have := make(map[string]bool)
	for _, s := range lease.Seeds {
		have[FeedHash(s)] = true
	}
	sentCrash := make(map[string]bool)
	sentBlocks := make(map[uint32]bool)

	return leaseJob{
		run: func(ctx context.Context) error {
			_, err := f.Run(ctx)
			return err
		},
		fill: func(req *ReportRequest, last bool) func() {
			var added []string
			for _, e := range f.Corpus().Export() {
				if h := FeedHash(e.Feed); !have[h] {
					added = append(added, h)
					req.Added = append(req.Added, e)
				}
			}
			if !last {
				req.Have = make([]string, 0, len(have)+len(added))
				for h := range have {
					req.Have = append(req.Have, h)
				}
				req.Have = append(req.Have, added...)
			}
			for _, cr := range f.Crashes() {
				if last || !sentCrash[cr.Key()] {
					req.Crashes = append(req.Crashes, cr)
				}
			}
			for _, pc := range f.Cov.CoveredBlocks() {
				if !sentBlocks[pc] {
					req.NewBlocks = append(req.NewBlocks, pc)
				}
			}
			req.BlocksStatic = f.Cov.TotalStatic
			req.Execs, req.Instructions = f.Stats()
			return func() {
				for _, h := range added {
					have[h] = true
				}
				for _, cr := range req.Crashes {
					sentCrash[cr.Key()] = true
				}
				for _, pc := range req.NewBlocks {
					sentBlocks[pc] = true
				}
			}
		},
		seeds: func(seeds []*fuzz.Feed) {
			var fresh []*fuzz.Feed
			for _, s := range seeds {
				if h := FeedHash(s); !have[h] {
					have[h] = true
					fresh = append(fresh, s)
				}
			}
			f.InjectSeeds(fresh)
		},
	}
}

// symbolicJob runs a symbolic-mode lease: an engine session whose
// periodic reports only renew the lease, and whose last report converts
// every bug into a crash entry with a bridge-derived reproducer feed.
func symbolicJob(img *binimg.Image) leaseJob {
	eng := core.NewEngine(img, core.DefaultOptions())
	var rep *core.Report
	return leaseJob{
		run: func(ctx context.Context) error {
			var err error
			rep, err = eng.TestDriver(ctx)
			return err
		},
		fill: func(req *ReportRequest, last bool) func() {
			if !last {
				return nil
			}
			for _, b := range rep.Bugs {
				req.Crashes = append(req.Crashes, &fuzz.Crash{
					Class:       b.Class,
					PC:          b.Fault.PC,
					Site:        b.Site,
					Entry:       b.Entry,
					Msg:         b.Fault.Msg,
					InInterrupt: b.InInterrupt,
					Feed:        fuzz.FromBug(b),
					Reproduced:  true,
				})
			}
			req.NewBlocks = eng.Cov.CoveredBlocks()
			req.BlocksStatic = eng.Cov.TotalStatic
			req.Execs = uint64(rep.PathsExplored)
			req.Instructions = rep.Instructions
			return nil
		},
	}
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
