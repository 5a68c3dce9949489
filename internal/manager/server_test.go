package manager

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fuzz"
)

func newTestServer(t *testing.T, cfg Config, ttl time.Duration) (*Manager, *httptest.Server) {
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

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestServerRPCFlow drives the whole worker protocol over real HTTP:
// connect → poll → report (corpus up, diff down) → report (crash,
// coverage) → final report, then checks every status endpoint reflects it.
func TestServerRPCFlow(t *testing.T) {
	cfg := Config{Campaigns: []CampaignSpec{{ID: "net", Driver: "rtl8029", Workers: 1, Execs: 100}}}
	m, srv := newTestServer(t, cfg, time.Minute)
	ctx := context.Background()
	c := NewClient(srv.URL, nil)

	conn, err := c.Connect(ctx, "itest")
	if err != nil {
		t.Fatal(err)
	}
	if conn.WorkerID == "" || conn.SyncIntervalMS <= 0 {
		t.Fatalf("bad connect response: %+v", conn)
	}
	lease, err := c.Poll(ctx)
	if err != nil || lease == nil {
		t.Fatalf("poll: %v, %+v", err, lease)
	}
	if lease.Driver != "rtl8029" || lease.Mode != ModeFuzz || lease.Execs != 100 {
		t.Fatalf("lease = %+v", lease)
	}

	// Corpus upload: one entry, and the diff must NOT echo it back.
	sresp, err := c.Report(ctx, &ReportRequest{
		LeaseID: lease.LeaseID,
		Driver:  lease.Driver,
		Added:   []fuzz.Entry{{Feed: feed(1, 2, 3, 4), Gain: 2}},
		Have:    []string{FeedHash(feed(1, 2, 3, 4))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sresp.Stop || len(sresp.Seeds) != 0 {
		t.Fatalf("report response = %+v, want no echo of our own feed", sresp)
	}
	// A second connected worker shows up in /status below. Its report
	// lists a have set without that feed, so the feed comes back.
	c2 := NewClient(srv.URL, nil)
	if _, err := c2.Connect(ctx, "peer"); err != nil {
		t.Fatal(err)
	}
	presp, err := c2.Report(ctx, &ReportRequest{Driver: lease.Driver, Have: []string{FeedHash(feed(5))}})
	if err != nil {
		t.Fatal(err)
	}
	if len(presp.Seeds) != 1 || !presp.Seeds[0].Equal(feed(1, 2, 3, 4)) {
		t.Fatalf("peer report got seeds %+v, want the uploaded feed", presp.Seeds)
	}

	// Crash + coverage report.
	rresp, err := c.Report(ctx, &ReportRequest{
		LeaseID:      lease.LeaseID,
		Driver:       lease.Driver,
		Crashes:      []*fuzz.Crash{crash("race condition", 0x44, feed(9, 9, 9, 9))},
		NewBlocks:    []uint32{0x10, 0x20, 0x30},
		BlocksStatic: 50,
		Execs:        60,
		Instructions: 600,
	})
	if err != nil || rresp.Stop {
		t.Fatalf("report: %v, %+v", err, rresp)
	}
	// A report without a have set gets no seeds.
	if len(rresp.Seeds) != 0 {
		t.Fatalf("report without have got seeds %+v", rresp.Seeds)
	}
	if _, err := c.Report(ctx, &ReportRequest{
		LeaseID: lease.LeaseID, Driver: lease.Driver, Final: true,
		Execs: 100, Instructions: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	if !m.Sched.Done() {
		t.Fatal("final report did not complete the slot")
	}

	var status StatusPage
	getJSON(t, srv.URL+"/status", &status)
	if len(status.Drivers) != 1 || status.Drivers[0].Execs != 100 || status.Drivers[0].BlocksCovered != 3 {
		t.Fatalf("/status drivers = %+v", status.Drivers)
	}
	if len(status.Campaigns) != 1 || status.Campaigns[0].Done != 1 {
		t.Fatalf("/status campaigns = %+v", status.Campaigns)
	}
	if len(status.Workers) != 2 {
		t.Fatalf("/status workers = %+v", status.Workers)
	}

	var corpusPage CorpusPage
	getJSON(t, srv.URL+"/corpus?driver=rtl8029", &corpusPage)
	if len(corpusPage.Entries) != 1 || corpusPage.Entries[0].Gain != 2 {
		t.Fatalf("/corpus = %+v", corpusPage)
	}

	var crashesPage CrashesPage
	getJSON(t, srv.URL+"/crashes", &crashesPage)
	if len(crashesPage.Crashes) != 1 {
		t.Fatalf("/crashes = %+v", crashesPage)
	}
	listed := crashesPage.Crashes[0]
	if len(listed.Reproducers) != 1 || listed.Reproducers[0].Feed != nil {
		t.Fatalf("crash list must omit reproducer feeds: %+v", listed)
	}

	var one CrashEntry
	getJSON(t, srv.URL+"/crash/"+listed.ID, &one)
	if len(one.Reproducers) != 1 || one.Reproducers[0].Feed == nil {
		t.Fatalf("/crash/<id> must serve the reproducer feed: %+v", one)
	}
	if !one.Reproducers[0].Feed.Equal(feed(9, 9, 9, 9)) {
		t.Fatal("served reproducer is not the reported feed")
	}

	var trends TrendsPage
	getJSON(t, srv.URL+"/trends", &trends)
	if len(trends.Coverage) == 0 {
		t.Fatalf("/trends = %+v, want a coverage sample", trends)
	}
}

// TestServerHTML: browsers (Accept: text/html) get the minimal status
// pages; everyone else gets JSON.
func TestServerHTML(t *testing.T) {
	m, srv := newTestServer(t, Config{}, time.Minute)
	m.State.AddCrash("rtl8029", "w", crash("race condition", 0x44, feed(1)))
	id := m.State.Crashes("")[0].ID
	for _, path := range []string{"/status", "/corpus", "/crashes", "/crash/" + id, "/trends"} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		req.Header.Set("Accept", "text/html")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		ct := resp.Header.Get("Content-Type")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(ct, "text/html") {
			t.Errorf("GET %s (html) = %d %s", path, resp.StatusCode, ct)
		}
		resp, err = http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		ct = resp.Header.Get("Content-Type")
		resp.Body.Close()
		if !strings.Contains(ct, "application/json") {
			t.Errorf("GET %s (default) = %s, want JSON", path, ct)
		}
	}
}

// TestServerErrors: malformed and invalid requests answer structured JSON
// errors with the right status codes.
func TestServerErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{}, time.Minute)
	resp, err := http.Post(srv.URL+PathReport, "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = HTTP %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+PathReport, "application/json", strings.NewReader(`{"worker_id":"w"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("driverless report = HTTP %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/crash/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown crash = HTTP %d, want 404", resp.StatusCode)
	}
}

// repeatByte is an endless stream of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestServerRejectsOversizedBody streams a request body one byte over
// maxRPCBody, generated on the fly rather than held in memory, at the
// report endpoint: the server must stop reading at the bound and answer
// 413.
func TestServerRejectsOversizedBody(t *testing.T) {
	_, srv := newTestServer(t, Config{}, time.Minute)
	const prefix = `{"driver":"`
	body := io.MultiReader(strings.NewReader(prefix),
		io.LimitReader(repeatByte('a'), maxRPCBody+1-int64(len(prefix))))
	resp, err := http.Post(srv.URL+PathReport, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = HTTP %d, want 413", resp.StatusCode)
	}
}

// TestServerConcurrent hammers the RPC endpoints and every read endpoint
// at once — the RWMutex-snapshot claim of the serving layer, checked under
// the race detector in CI.
func TestServerConcurrent(t *testing.T) {
	cfg := Config{Campaigns: []CampaignSpec{{ID: "net", Driver: "rtl8029", Workers: 4, Execs: 1000}}}
	_, srv := newTestServer(t, cfg, time.Minute)
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(srv.URL, nil)
			if _, err := c.Connect(ctx, "hammer"); err != nil {
				t.Error(err)
				return
			}
			lease, err := c.Poll(ctx)
			if err != nil || lease == nil {
				t.Errorf("worker %d: poll: %v %+v", w, err, lease)
				return
			}
			for i := 0; i < 20; i++ {
				b := byte(w*20 + i)
				if _, err := c.Report(ctx, &ReportRequest{
					LeaseID: lease.LeaseID, Driver: lease.Driver,
					Added:        []fuzz.Entry{{Feed: feed(b, b, b, b), Gain: 1}},
					Have:         []string{FeedHash(feed(b, b, b, b))},
					Crashes:      []*fuzz.Crash{crash("race condition", uint32(0x40+w%2*4), feed(b))},
					NewBlocks:    []uint32{uint32(b)},
					BlocksStatic: 100,
					Execs:        uint64(i * 10),
					Instructions: uint64(i * 100),
				}); err != nil {
					t.Errorf("worker %d: report: %v", w, err)
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, path := range []string{"/status", "/corpus", "/crashes", "/trends"} {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	var crashesPage CrashesPage
	getJSON(t, srv.URL+"/crashes", &crashesPage)
	if len(crashesPage.Crashes) != 2 {
		t.Fatalf("crash entries = %d, want 2 (fleet dedup across 4 workers)", len(crashesPage.Crashes))
	}
}

// TestStatusReportsWriteThroughErrors: a crash or corpus file the state
// directory cannot take (here its driver directory is a regular file, so
// MkdirAll fails even as root) keeps the entry in memory, and /status
// counts the failures and shows the last error.
func TestStatusReportsWriteThroughErrors(t *testing.T) {
	dir := t.TempDir()
	state, err := OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"crashes", "corpus"} {
		if err := os.WriteFile(filepath.Join(dir, sub, "rtl8029"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sched, err := NewScheduler(Config{}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewManager(state, sched).Handler())
	t.Cleanup(srv.Close)

	var page StatusPage
	getJSON(t, srv.URL+"/status", &page)
	if page.WriteErrors != 0 || page.LastWriteError != "" {
		t.Fatalf("fresh state reports %d write errors (%q)", page.WriteErrors, page.LastWriteError)
	}
	state.AddCrash("rtl8029", "w1", crash("race condition", 0x44, feed(1, 2)))
	state.AddCorpus("rtl8029", fuzz.Entry{Feed: feed(3), Gain: 1}, "w1")
	state.AddCorpus("amd-pcnet", fuzz.Entry{Feed: feed(4), Gain: 1}, "w1")
	getJSON(t, srv.URL+"/status", &page)
	if page.WriteErrors != 2 || !strings.Contains(page.LastWriteError, filepath.Join("corpus", "rtl8029")) {
		t.Fatalf("status reports %d write errors, last %q; want 2, the corpus directory", page.WriteErrors, page.LastWriteError)
	}
	if len(state.Crashes("rtl8029")) != 1 || len(state.CorpusEntries("rtl8029")) != 1 {
		t.Fatal("an entry whose write-through failed was dropped from memory")
	}
	req, err := http.NewRequest("GET", srv.URL+"/status", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/html")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "2 state write(s) failed") {
		t.Fatalf("status page does not show the write errors:\n%s", body)
	}
}

// TestTrendWriteErrorsCounted: a trend line the state directory cannot take
// (here trends/coverage.jsonl is a directory, so opening it for append
// fails even as root) is counted like a failed corpus or crash write, and
// the sample stays in memory.
func TestTrendWriteErrorsCounted(t *testing.T) {
	dir := t.TempDir()
	state, err := OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	trend := filepath.Join(dir, "trends", "coverage.jsonl")
	if err := os.Mkdir(trend, 0o755); err != nil {
		t.Fatal(err)
	}
	if added := state.MergeCoverage("rtl8029", []uint32{0x100000, 0x100010}, 10, 1, 100, "w1"); added != 2 {
		t.Fatalf("merged %d new blocks, want 2", added)
	}
	n, last := state.WriteErrors()
	if n != 1 || !strings.Contains(last, trend) {
		t.Fatalf("write errors = %d, last %q; want 1 naming %s", n, last, trend)
	}
	if len(state.CoverageTrend("rtl8029")) != 1 {
		t.Fatal("a trend sample whose write-through failed was dropped from memory")
	}
}

// TestReportRejectsUnknownDriver: a report's driver names the state
// directory's corpus and crash folders, so a report for a driver outside
// the corpus, such as one that climbs out of the directory with "..", is
// answered 400 and writes nothing.
func TestReportRejectsUnknownDriver(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "state")
	state, err := OpenState(dir)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler(Config{}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	h := NewManager(state, sched).Handler()
	for _, driver := range []string{"../../escaped", "no-such-driver"} {
		body, err := json.Marshal(&ReportRequest{
			Driver:  driver,
			Added:   []fuzz.Entry{{Feed: feed(1, 2, 3, 4), Gain: 1}},
			Crashes: []*fuzz.Crash{crash("race condition", 0x44, feed(9, 9, 9, 9))},
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathReport, strings.NewReader(string(body))))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("report for driver %q = HTTP %d, want 400", driver, rec.Code)
		}
	}
	if stray := strayFiles(t, root, dir); len(stray) > 0 {
		t.Fatalf("files written outside the state directory: %v", stray)
	}
	if d := state.Summaries(); len(d) != 0 {
		t.Fatalf("unknown drivers reached the state: %+v", d)
	}
}
