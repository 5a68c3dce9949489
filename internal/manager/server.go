package manager

import (
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/fuzz"
)

// Manager glues the two halves — the durable State (results) and the
// Scheduler (work distribution) — behind one http.Handler: the worker RPC
// endpoints under /rpc/ and the human/JSON status API at /status, /corpus,
// /crashes, /crash/<id>, and /trends.
//
// The serving layer is built for many concurrent clients: every read
// handler works on an RWMutex-guarded snapshot copied out of the state
// (server_test.go hammers the handlers concurrently with live reports
// under the race detector).
type Manager struct {
	State *State
	Sched *Scheduler

	mux     *http.ServeMux
	started time.Time
}

// NewManager wires a manager from its state store and scheduler.
func NewManager(state *State, sched *Scheduler) *Manager {
	m := &Manager{State: state, Sched: sched, started: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathConnect, m.handleConnect)
	mux.HandleFunc("POST "+PathPoll, m.handlePoll)
	mux.HandleFunc("POST "+PathReport, m.handleReport)
	mux.HandleFunc("POST "+PathSync, m.handleSync)
	mux.HandleFunc("GET /status", m.handleStatus)
	mux.HandleFunc("GET /corpus", m.handleCorpus)
	mux.HandleFunc("GET /crashes", m.handleCrashes)
	mux.HandleFunc("GET /crash/{id}", m.handleCrash)
	mux.HandleFunc("GET /trends", m.handleTrends)
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/status", http.StatusFound)
	})
	m.mux = mux
	return m
}

// Handler returns the manager's HTTP handler (RPC + status API).
func (m *Manager) Handler() http.Handler { return m.mux }

// --- worker RPC -----------------------------------------------------------

func (m *Manager) handleConnect(w http.ResponseWriter, r *http.Request) {
	var req ConnectRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Worker == "" {
		req.Worker = "worker"
	}
	id := m.Sched.Connect(req.Worker)
	writeJSONResp(w, &ConnectResponse{
		WorkerID:       id,
		PollIntervalMS: DefaultPollInterval.Milliseconds(),
		SyncIntervalMS: DefaultSyncInterval.Milliseconds(),
	})
}

func (m *Manager) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if !decode(w, r, &req) {
		return
	}
	lease := m.Sched.Poll(req.WorkerID)
	if lease != nil {
		// Ship the fleet's current corpus for the driver as initial seeds:
		// a fresh worker (or a reassigned slot) starts from everything the
		// fleet already learned.
		lease.Seeds = m.State.CorpusFeeds(lease.Driver)
	}
	writeJSONResp(w, &PollResponse{Lease: lease})
}

func (m *Manager) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Driver == "" {
		httpError(w, http.StatusBadRequest, "report without driver")
		return
	}
	// Merge evidence FIRST, lease bookkeeping second: results from a stale
	// lease (a worker we presumed dead that was merely slow) are still
	// results.
	for _, cr := range req.Crashes {
		m.State.AddCrash(req.Driver, req.WorkerID, cr.Crash)
	}
	execsDelta, instrsDelta, live := m.Sched.Renew(req.WorkerID, req.LeaseID, req.Execs, req.Instructions)
	if len(req.NewBlocks) > 0 || execsDelta > 0 || instrsDelta > 0 {
		m.State.MergeCoverage(req.Driver, req.NewBlocks, req.BlocksStatic, execsDelta, instrsDelta, "worker")
	}
	if req.Final {
		m.Sched.Complete(req.WorkerID, req.LeaseID)
	}
	writeJSONResp(w, &ReportResponse{Stop: !live && !req.Final})
}

func (m *Manager) handleSync(w http.ResponseWriter, r *http.Request) {
	var req SyncRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Driver == "" {
		httpError(w, http.StatusBadRequest, "sync without driver")
		return
	}
	for _, e := range req.Added {
		m.State.AddCorpus(req.Driver, e, req.WorkerID)
	}
	live := m.Sched.Heartbeat(req.WorkerID, req.LeaseID)
	writeJSONResp(w, &SyncResponse{
		Seeds: m.State.CorpusDiff(req.Driver, req.Have),
		Stop:  !live,
	})
}

// --- status API -----------------------------------------------------------

// StatusPage is the /status document.
type StatusPage struct {
	Started   time.Time        `json:"started"`
	UptimeSec float64          `json:"uptime_sec"`
	Drivers   []DriverSummary  `json:"drivers"`
	Campaigns []CampaignStatus `json:"campaigns"`
	Workers   []WorkerStatus   `json:"workers"`
	// WriteErrors counts corpus, crash and trend writes the state directory
	// failed to take; LastWriteError is the most recent failure.
	WriteErrors    uint64 `json:"write_errors"`
	LastWriteError string `json:"last_write_error,omitempty"`
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	campaigns, workers := m.Sched.Status()
	page := StatusPage{
		Started:   m.started,
		UptimeSec: time.Since(m.started).Seconds(),
		Drivers:   m.State.Summaries(),
		Campaigns: campaigns,
		Workers:   workers,
	}
	page.WriteErrors, page.LastWriteError = m.State.WriteErrors()
	respond(w, r, page, statusTmpl)
}

// CorpusPage is the /corpus document.
type CorpusPage struct {
	Driver  string        `json:"driver,omitempty"`
	Entries []CorpusEntry `json:"entries"`
}

func (m *Manager) handleCorpus(w http.ResponseWriter, r *http.Request) {
	driver := r.URL.Query().Get("driver")
	var entries []CorpusEntry
	if driver != "" {
		entries = m.State.CorpusEntries(driver)
	} else {
		for _, sum := range m.State.Summaries() {
			entries = append(entries, m.State.CorpusEntries(sum.Driver)...)
		}
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Gain > entries[j].Gain })
	respond(w, r, CorpusPage{Driver: driver, Entries: entries}, corpusTmpl)
}

// CrashesPage is the /crashes document.
type CrashesPage struct {
	Driver  string       `json:"driver,omitempty"`
	Crashes []CrashEntry `json:"crashes"`
}

func (m *Manager) handleCrashes(w http.ResponseWriter, r *http.Request) {
	driver := r.URL.Query().Get("driver")
	page := CrashesPage{Driver: driver, Crashes: m.State.Crashes(driver)}
	// The list view stays light: reproducer feeds are served per-entry at
	// /crash/<id>, not inlined N times here.
	for i := range page.Crashes {
		for j := range page.Crashes[i].Reproducers {
			page.Crashes[i].Reproducers[j].Feed = nil
		}
	}
	respond(w, r, page, crashesTmpl)
}

func (m *Manager) handleCrash(w http.ResponseWriter, r *http.Request) {
	e, ok := m.State.CrashByID(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such crash")
		return
	}
	respond(w, r, e, crashTmpl)
}

// TrendsPage is the /trends document: coverage over time per driver.
type TrendsPage struct {
	Driver   string               `json:"driver,omitempty"`
	Coverage []CoverageTrendPoint `json:"coverage"`
}

func (m *Manager) handleTrends(w http.ResponseWriter, r *http.Request) {
	driver := r.URL.Query().Get("driver")
	page := TrendsPage{
		Driver:   driver,
		Coverage: m.State.CoverageTrend(driver),
	}
	respond(w, r, page, trendsTmpl)
}

// --- plumbing ---------------------------------------------------------------

// maxRPCBody bounds one worker RPC request body. The largest bodies a
// fleet sends are report and sync requests carrying new crashes and corpus
// entries, about 17 KB at most in a two-worker loopback fleet on the
// evaluation drivers; the bound is three orders of magnitude above that,
// so only a broken or hostile client reaches it.
const maxRPCBody = 16 << 20

// decode reads one JSON request body of at most maxRPCBody bytes. An
// oversized body answers 413, a malformed one 400.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRPCBody)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	} else {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
	}
	return false
}

func writeJSONResp(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

// respond content-negotiates: browsers (Accept: text/html) get the minimal
// status page, everything else gets JSON.
func respond(w http.ResponseWriter, r *http.Request, v any, tmpl *template.Template) {
	if strings.Contains(r.Header.Get("Accept"), "text/html") {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := tmpl.Execute(w, v); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSONResp(w, v)
}

// Minimal human-readable pages. Deliberately unstyled beyond legibility —
// the JSON API is the machine interface; these are for a quick look.
var pageFuncs = template.FuncMap{
	"pct": func(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) },
	"hex": func(v uint32) string { return fmt.Sprintf("%#x", v) },
	"feedjson": func(f *fuzz.Feed) string {
		if f == nil {
			return "(none)"
		}
		b, _ := json.MarshalIndent(f, "", "  ")
		return string(b)
	},
}

var statusTmpl = template.Must(template.New("status").Funcs(pageFuncs).Parse(`<!doctype html>
<title>ddtd status</title><h1>ddtd</h1>
<p>up since {{.Started.Format "2006-01-02 15:04:05"}} ({{printf "%.0f" .UptimeSec}}s)</p>
{{if .WriteErrors}}<p><b>{{.WriteErrors}} state write(s) failed; last: {{.LastWriteError}}</b></p>{{end}}
<h2>drivers</h2>
<table border=1 cellpadding=4><tr><th>driver</th><th>corpus</th><th>crashes</th><th>coverage</th><th>execs</th><th>instructions</th></tr>
{{range .Drivers}}<tr><td>{{.Driver}}</td><td><a href="/corpus?driver={{.Driver}}">{{.CorpusSize}}</a></td><td><a href="/crashes?driver={{.Driver}}">{{.Crashes}}</a></td><td>{{.BlocksCovered}}/{{.BlocksStatic}} ({{pct .Coverage}})</td><td>{{.Execs}}</td><td>{{.Instructions}}</td></tr>{{end}}
</table>
<h2>campaigns</h2>
<table border=1 cellpadding=4><tr><th>id</th><th>driver</th><th>mode</th><th>slots</th><th>running</th><th>done</th><th>reissues</th></tr>
{{range .Campaigns}}<tr><td>{{.ID}}</td><td>{{.Driver}}</td><td>{{.Mode}}</td><td>{{.Slots}}</td><td>{{.Running}}</td><td>{{.Done}}</td><td>{{.Reissues}}</td></tr>{{end}}
</table>
<h2>workers</h2>
<table border=1 cellpadding=4><tr><th>id</th><th>last seen</th><th>lease</th></tr>
{{range .Workers}}<tr><td>{{.ID}}</td><td>{{.LastSeen.Format "15:04:05"}}</td><td>{{.Lease}}</td></tr>{{end}}
</table>
<p><a href="/trends">trends</a></p>`))

var corpusTmpl = template.Must(template.New("corpus").Funcs(pageFuncs).Parse(`<!doctype html>
<title>ddtd corpus</title><h1>corpus{{with .Driver}} — {{.}}{{end}}</h1>
<table border=1 cellpadding=4><tr><th>hash</th><th>driver</th><th>gain</th><th>size</th><th>worker</th><th>added</th></tr>
{{range .Entries}}<tr><td>{{.Hash}}</td><td>{{.Driver}}</td><td>{{.Gain}}</td><td>{{.Size}}</td><td>{{.Worker}}</td><td>{{.Added.Format "15:04:05"}}</td></tr>{{end}}
</table>`))

var crashesTmpl = template.Must(template.New("crashes").Funcs(pageFuncs).Parse(`<!doctype html>
<title>ddtd crashes</title><h1>crashes{{with .Driver}} — {{.}}{{end}}</h1>
<table border=1 cellpadding=4><tr><th>id</th><th>driver</th><th>class</th><th>site</th><th>entry</th><th>reports</th><th>workers</th><th>reproducers</th></tr>
{{range .Crashes}}<tr><td><a href="/crash/{{.ID}}">{{.ID}}</a></td><td>{{.Driver}}</td><td>{{.Class}}</td><td>{{hex .Site}}</td><td>{{.Entry}}</td><td>{{.Reports}}</td><td>{{range .Workers}}{{.}} {{end}}</td><td>{{len .Reproducers}}</td></tr>{{end}}
</table>`))

var crashTmpl = template.Must(template.New("crash").Funcs(pageFuncs).Parse(`<!doctype html>
<title>crash {{.ID}}</title><h1>{{.Key}}</h1>
<p>driver {{.Driver}} · entry {{.Entry}} · pc {{hex .PC}} · first seen {{.FirstSeen.Format "2006-01-02 15:04:05"}}</p>
<p>{{.Msg}}</p>
<p>{{.Reports}} report(s) from {{len .Workers}} worker(s): {{range .Workers}}{{.}} {{end}}</p>
<h2>reproducers</h2>
{{range .Reproducers}}<h3>{{.Hash}} ({{.Worker}})</h3><pre>{{feedjson .Feed}}</pre>{{end}}`))

var trendsTmpl = template.Must(template.New("trends").Funcs(pageFuncs).Parse(`<!doctype html>
<title>ddtd trends</title><h1>trends{{with .Driver}} — {{.}}{{end}}</h1>
<h2>coverage</h2>
<table border=1 cellpadding=4><tr><th>time</th><th>driver</th><th>blocks</th><th>static</th><th>execs</th><th>source</th></tr>
{{range .Coverage}}<tr><td>{{.Time.Format "2006-01-02 15:04:05"}}</td><td>{{.Driver}}</td><td>{{.Blocks}}</td><td>{{.Static}}</td><td>{{.Execs}}</td><td>{{.Source}}</td></tr>{{end}}
</table>`))
