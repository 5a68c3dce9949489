package core

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// phaseDebug is the DDT_DEBUG_PHASES reporter. All per-phase timing lines
// go through one process-wide mutex, so output from several engines running
// at once (benchmarks, tests) never interleaves mid-line.
type phaseDebug struct {
	mu sync.Mutex
	w  io.Writer
}

var dbgPhases = &phaseDebug{w: os.Stdout}

// enabled reports whether DDT_DEBUG_PHASES output is on. Checked per call
// so tests can toggle the environment.
func (d *phaseDebug) enabled() bool {
	return os.Getenv("DDT_DEBUG_PHASES") != ""
}

// printf emits one whole line under the reporter's lock.
func (d *phaseDebug) printf(format string, args ...any) {
	if !d.enabled() {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	fmt.Fprintf(d.w, format, args...)
}
