// Command ddtd is the distributed campaign manager: the single durable
// owner of a fleet's corpus, crash database, merged coverage, and coverage
// trend. Workers (ddtfuzz -manager <addr>) lease campaigns from it over
// the HTTP/JSON RPC protocol (docs/protocol.md) and it serves status pages
// and reproducers at /status, /corpus, /crashes, /crash/<id>, /trends.
//
// Serve mode (the default):
//
//	ddtd -state ./fleet -campaigns campaigns.json -listen :8634
//
// One-shot ingest modes (apply, flush the state directory, exit) — how the
// nightly workflow posts its results into a manager state directory instead
// of diffing raw artifacts:
//
//	ddtd -state ./fleet -ingest-fuzz report.json      # ddtfuzz -json output
//	ddtd -state ./fleet -import ./corpus -import-driver rtl8029
//
// Benchmark results are not kept here: perfbench (bash perfbench/run.sh)
// measures performance, and the CI bench gate compares its runs.
//
// Flags:
//
//	-state dir        state directory (created if missing; required)
//	-listen addr      HTTP listen address (default :8634)
//	-campaigns file   campaign config JSON ({"campaigns":[...]}; none = a
//	                  pure status/ingest server that hands out no work)
//	-lease-ttl d      lease expiry without a worker heartbeat (default 30s)
//	-flush-every d    periodic index flush (default 5s)
//	-exit-when-done   exit 0 once every campaign slot completes (CI mode)
//	-timeout d        shut down gracefully after this long (0 = run until
//	                  signaled; uniform campaign flag name)
//	-ingest-fuzz f    one-shot: merge a ddtfuzz JSON report (repeatable)
//	-import dir       one-shot: import a seed-*.json corpus directory
//	-import-driver d  driver the imported corpus belongs to
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/fuzz"
	"repro/internal/manager"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	stateDir := flag.String("state", "", "state directory (required)")
	listen := flag.String("listen", ":8634", "HTTP listen address")
	campaignsFile := flag.String("campaigns", "", "campaign config JSON file")
	leaseTTL := flag.Duration("lease-ttl", manager.DefaultLeaseTTL, "lease expiry without a heartbeat")
	flushEvery := flag.Duration("flush-every", 5*time.Second, "periodic state index flush")
	exitWhenDone := flag.Bool("exit-when-done", false, "exit once every campaign slot completes")
	cf := campaign.RegisterFlags(flag.CommandLine, campaign.FlagTimeout)
	var ingestFuzz multiFlag
	flag.Var(&ingestFuzz, "ingest-fuzz", "one-shot: merge a ddtfuzz JSON report (repeatable)")
	importDir := flag.String("import", "", "one-shot: import a seed-*.json corpus directory")
	importDriver := flag.String("import-driver", "", "driver the imported corpus belongs to")
	flag.Parse()

	if *stateDir == "" {
		fatal(errors.New("-state is required"))
	}
	state, err := manager.OpenState(*stateDir)
	if err != nil {
		fatal(err)
	}

	if len(ingestFuzz) > 0 || *importDir != "" {
		if err := oneShot(state, ingestFuzz, *importDir, *importDriver); err != nil {
			fatal(err)
		}
		if err := state.Flush(); err != nil {
			fatal(err)
		}
		return
	}

	var cfg manager.Config
	if *campaignsFile != "" {
		b, err := os.ReadFile(*campaignsFile)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(b, &cfg); err != nil {
			fatal(fmt.Errorf("campaign config %s: %w", *campaignsFile, err))
		}
	}
	sched, err := manager.NewScheduler(cfg, *leaseTTL)
	if err != nil {
		fatal(err)
	}
	m := manager.NewManager(state, sched)

	ctx, cancel := manager.ShutdownContext(context.Background())
	defer cancel()
	// The uniform -timeout bound: the daemon drains exactly like a SIGINT
	// when it expires.
	if cf.Timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, cf.Timeout)
		defer tcancel()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: m.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Printf("ddtd: serving on %s (state %s, %d campaign(s))\n",
		ln.Addr(), *stateDir, len(cfg.Campaigns))

	// Periodic index flush; the heavy artifacts are write-through already.
	go func() {
		t := time.NewTicker(*flushEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if err := state.Flush(); err != nil {
					fmt.Fprintln(os.Stderr, "ddtd: flush:", err)
				}
			}
		}
	}()

	if *exitWhenDone {
		go func() {
			t := time.NewTicker(500 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if sched.Done() {
						cancel()
						return
					}
				}
			}
		}()
	}

	select {
	case err := <-serveErr:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop handing out work (in-flight heartbeats answer
	// Stop so workers wind down and send their final reports through the
	// draining server), then flush the state indexes.
	fmt.Println("ddtd: shutting down")
	sched.Stop()
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	_ = srv.Shutdown(shCtx)
	if err := state.Flush(); err != nil {
		fatal(err)
	}
}

// oneShot applies the ingest/import flags against the opened state.
func oneShot(state *manager.State, fuzzReports []string, importDir, importDriver string) error {
	for _, fn := range fuzzReports {
		b, err := os.ReadFile(fn)
		if err != nil {
			return err
		}
		var rep fuzz.Report
		if err := json.Unmarshal(b, &rep); err != nil {
			return fmt.Errorf("fuzz report %s: %w", fn, err)
		}
		if err := state.IngestFuzzReport(&rep, "nightly"); err != nil {
			return fmt.Errorf("fuzz report %s: %w", fn, err)
		}
		fmt.Printf("ddtd: ingested %s (%s: %d crash(es), %d/%d blocks)\n",
			fn, rep.Driver, len(rep.Crashes), rep.BlocksCovered, rep.BlocksStatic)
	}
	if importDir != "" {
		if importDriver == "" {
			return errors.New("-import requires -import-driver")
		}
		n, err := state.ImportCorpusDir(importDriver, importDir)
		if err != nil {
			return err
		}
		fmt.Printf("ddtd: imported %d corpus entr(ies) from %s\n", n, importDir)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddtd:", err)
	os.Exit(2)
}
