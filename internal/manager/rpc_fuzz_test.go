package manager

import (
	"bytes"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// strayFiles lists what exists under root outside the state directory dir
// and its ancestors: any such entry is a write that escaped dir.
func strayFiles(t testing.TB, root, dir string) []string {
	t.Helper()
	var stray []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case p == dir:
			return filepath.SkipDir
		case p == root || strings.HasPrefix(dir, p+string(filepath.Separator)):
			return nil
		}
		stray = append(stray, p)
		if d.IsDir() {
			return filepath.SkipDir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return stray
}

// FuzzManagerRPC posts arbitrary bodies to the worker RPC endpoints of a
// manager over a state directory: no body may panic the manager or make it
// write outside that directory. The directory sits four levels below the
// checked root, so a path that climbs out of it by up to that many levels
// lands where the check sees it. The handler is called directly, so a
// panic fails the input instead of being recovered by an HTTP server.
// Seeds live in testdata/fuzz/FuzzManagerRPC/.
//
//	go test -run '^$' -fuzz '^FuzzManagerRPC$' -fuzztime 30s ./internal/manager/
func FuzzManagerRPC(f *testing.F) {
	root := f.TempDir()
	dir := filepath.Join(root, "a", "b", "c", "state")
	state, err := OpenState(dir)
	if err != nil {
		f.Fatal(err)
	}
	sched, err := NewScheduler(Config{Campaigns: []CampaignSpec{
		{ID: "net", Driver: "rtl8029", Workers: 2, Execs: 1000},
		{ID: "sym", Driver: "amd-pcnet", Mode: ModeSymbolic, Workers: 1},
	}}, time.Minute)
	if err != nil {
		f.Fatal(err)
	}
	h := NewManager(state, sched).Handler()
	paths := []string{PathConnect, PathPoll, PathReport}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		req := httptest.NewRequest(http.MethodPost, paths[int(endpoint)%len(paths)], bytes.NewReader(body))
		h.ServeHTTP(httptest.NewRecorder(), req)
		if stray := strayFiles(t, root, dir); len(stray) > 0 {
			t.Fatalf("files written outside the state directory: %v", stray)
		}
	})
}
