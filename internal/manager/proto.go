// Package manager implements ddtd, the distributed campaign manager: a
// long-running control plane that owns the corpus and crash database for a
// fleet of fuzzing/symbolic workers, schedules campaigns across worker
// processes, merges coverage, dedups crashes fleet-wide, and serves status
// and reproducers over HTTP.
//
// The design follows syz-manager: one manager process is the single owner
// of durable campaign state (a state directory; see state.go), and any
// number of stateless worker processes (ddtfuzz -manager <addr>) connect
// over an HTTP/JSON RPC protocol:
//
//	connect → poll (lease a campaign) → [run] → periodic report (crashes,
//	coverage, progress, corpus deltas both ways) → final report
//
// Work hand-out is lease-based: a worker that stops heartbeating (its
// process crashed, its host died) has its lease expired and the campaign
// slot re-issued to the next poller, so work is re-run rather than lost.
// The wire formats deliberately reuse the fuzzing subsystem's existing
// on-disk formats — fuzz.Feed JSON for reproducers and corpus entries, the
// seed-*.json corpus directory layout — so single-process ddtfuzz corpora
// import cleanly (docs/protocol.md is the protocol reference).
package manager

import (
	"time"

	"repro/internal/fuzz"
)

// Protocol endpoints, all POST with JSON bodies (see docs/protocol.md).
const (
	PathConnect = "/rpc/connect"
	PathPoll    = "/rpc/poll"
	PathReport  = "/rpc/report"
)

// ConnectRequest introduces a worker to the manager.
type ConnectRequest struct {
	// Worker is the worker's self-chosen name (host:pid style); the manager
	// appends a unique suffix if it collides.
	Worker string `json:"worker"`
}

// ConnectResponse assigns the worker its identity and cadences.
type ConnectResponse struct {
	// WorkerID is the manager-assigned unique worker identity; every later
	// request carries it.
	WorkerID string `json:"worker_id"`
	// PollIntervalMS is how long an idle worker should wait between polls.
	PollIntervalMS int64 `json:"poll_interval_ms"`
	// SyncIntervalMS is the cadence of mid-campaign reports; it is well
	// below the lease TTL, so a live worker's lease never expires.
	SyncIntervalMS int64 `json:"sync_interval_ms"`
}

// PollRequest asks for work.
type PollRequest struct {
	WorkerID string `json:"worker_id"`
}

// PollResponse hands out at most one campaign lease.
type PollResponse struct {
	// Lease is nil when no work is available; the worker sleeps its poll
	// interval and asks again.
	Lease *CampaignLease `json:"lease,omitempty"`
}

// Campaign modes.
const (
	ModeFuzz     = "fuzz"
	ModeSymbolic = "symbolic"
)

// CampaignLease is one unit of handed-out work: a campaign slot bound to a
// worker for as long as the worker keeps heartbeating (every report renews
// the lease).
type CampaignLease struct {
	// LeaseID identifies this hand-out; reports must echo it. A re-issued
	// slot gets a fresh LeaseID, so stale reports from a presumed-dead
	// worker are recognizable (they are still merged — crash evidence is
	// crash evidence — but cannot complete the slot).
	LeaseID string `json:"lease_id"`
	// Campaign / Slot name the work unit: campaign ID from the config file
	// and the slot index within its worker fan-out.
	Campaign string `json:"campaign"`
	Slot     int    `json:"slot"`
	// Driver is the corpus driver to build ("rtl8029", ...); Fixed selects
	// the corrected variant.
	Driver string `json:"driver"`
	Fixed  bool   `json:"fixed,omitempty"`
	// Mode is ModeFuzz or ModeSymbolic.
	Mode string `json:"mode"`
	// Fuzz-mode budgets and switches (per slot).
	Execs      uint64 `json:"execs,omitempty"`
	DurationMS int64  `json:"duration_ms,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Persist    bool   `json:"persist,omitempty"`
	Dict       bool   `json:"dict,omitempty"`
	// Seeds is the manager's current corpus for the driver, shipped as
	// initial seeds so a fresh worker starts from fleet knowledge instead
	// of from scratch.
	Seeds []*fuzz.Feed `json:"seeds,omitempty"`
}

// ReportRequest carries results: crashes, the coverage delta, progress
// counters and the corpus delta. Sent periodically during a campaign and
// once more when the lease's work is done. Any report renews the lease.
type ReportRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseID  string `json:"lease_id"`
	// Driver names the driver the results belong to. It rides in the report
	// (rather than being looked up from the lease) so that evidence from a
	// STALE lease — a worker the manager already presumed dead — still
	// merges: crash evidence is never discarded.
	Driver string `json:"driver"`
	// Final marks lease completion: the slot is done and will not be
	// re-issued.
	Final bool `json:"final,omitempty"`
	// Crashes are the crashes found since the last acknowledged report
	// (deduplicated worker-side; the manager dedups again fleet-wide by
	// Crash.Key() and attaches every distinct reproducer feed to one entry).
	Crashes []*fuzz.Crash `json:"crashes,omitempty"`
	// NewBlocks is the covered-block delta since the last acknowledged
	// report, merged into the manager's fleet coverage map for the driver.
	NewBlocks []uint32 `json:"new_blocks,omitempty"`
	// BlocksStatic is the driver's static block denominator (constant per
	// driver; sent so the manager can report relative coverage).
	BlocksStatic int `json:"blocks_static,omitempty"`
	// Execs / Instructions are cumulative campaign progress counters.
	Execs        uint64 `json:"execs,omitempty"`
	Instructions uint64 `json:"instructions,omitempty"`
	// Added are corpus entries the worker admitted since its last
	// acknowledged report.
	Added []fuzz.Entry `json:"added,omitempty"`
	// Have lists content hashes of feeds the worker already holds (its own
	// admissions and previously downloaded ones), so the manager ships only
	// the difference. A report without Have gets no seeds back.
	Have []string `json:"have,omitempty"`
}

// ReportResponse acknowledges a report.
type ReportResponse struct {
	// Stop asks the worker to wind the campaign down (lease re-issued
	// elsewhere or manager shutting down).
	Stop bool `json:"stop,omitempty"`
	// Seeds are fleet corpus feeds the worker does not have yet (only for
	// a report that lists Have).
	Seeds []*fuzz.Feed `json:"seeds,omitempty"`
}

// errorResponse is the JSON body of a non-200 RPC answer.
type errorResponse struct {
	Error string `json:"error"`
}

// CampaignSpec is one campaign in the ddtd config file: a driver, a mode,
// and a worker fan-out. Every slot in Workers is handed out as its own
// lease (with a distinct per-slot seed), so one campaign spreads across
// the fleet.
type CampaignSpec struct {
	// ID names the campaign (unique within the config).
	ID     string `json:"id"`
	Driver string `json:"driver"`
	Fixed  bool   `json:"fixed,omitempty"`
	// Mode is "fuzz" (default) or "symbolic".
	Mode string `json:"mode,omitempty"`
	// Workers is the slot fan-out (default 1).
	Workers int `json:"workers,omitempty"`
	// Execs / Duration bound each slot's campaign ("30s" syntax for
	// Duration). At least one must be set for fuzz mode.
	Execs    uint64 `json:"execs,omitempty"`
	Duration string `json:"duration,omitempty"`
	// Seed is the base RNG seed; slot i runs with Seed+i.
	Seed    int64 `json:"seed,omitempty"`
	Persist bool  `json:"persist,omitempty"`
	Dict    bool  `json:"dict,omitempty"`
}

// Config is the ddtd campaign config file format.
type Config struct {
	Campaigns []CampaignSpec `json:"campaigns"`
}

// duration parses the spec's Duration field (empty means 0).
func (s *CampaignSpec) duration() (time.Duration, error) {
	if s.Duration == "" {
		return 0, nil
	}
	return time.ParseDuration(s.Duration)
}
