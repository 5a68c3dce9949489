// Package fuzz implements a coverage-guided concolic fuzzing subsystem on
// top of DDT's virtual machine and simulated kernel.
//
// DDT's selective symbolic execution (package core) is exhaustive per path
// but pays for a constraint solver and forks at every symbolic branch; path
// explosion is the paper's own scalability ceiling. This package runs the
// same driver images and the same workload phases fully concretely: every
// would-be symbolic injection point — device register reads, registry
// values, packet bytes, entry arguments, allocation-failure decisions,
// interrupt arrival times — is answered from a replayable byte Feed. One
// execution explores one path at native interpreter speed, and a
// syzkaller-style loop (mutation, coverage-novelty corpus admission, crash
// triage and dedup, parallel workers with a work-stealing queue) searches
// the feed space.
//
// The two modes meet in a concolic bridge (bridge.go): FromBug turns a
// symbolic bug's solved inputs into a feed that replays it concretely, and
// LiftFeed pins the engine's first symbols to a feed prefix so symbolic
// execution forks outward from that concrete path.
package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Feed is one replayable concrete input: everything outside the driver's
// control that the fuzzer decides. Executing the same feed against the same
// image is deterministic, so a feed attached to a crash report is the
// crash's reproducer.
type Feed struct {
	// Data answers value injections in consumption order: device MMIO/port
	// register reads and symbolic-injection sites (registry values, packet
	// bytes, OIDs, ...) each consume the next little-endian word. An
	// exhausted stream answers zero, so every feed is total.
	Data []byte `json:"data"`
	// Forks answers fork decisions one byte per decision, in execution
	// order: annotation forks (alternative API outcomes, e.g. allocation
	// failure), where an odd byte takes the alternative, and scenario-edge
	// choices (Executor.route). Exhausted means the primary outcome and the
	// first edge.
	Forks []byte `json:"forks,omitempty"`
	// IRQ lists absolute instruction counts at which to inject a device
	// interrupt (ascending; injected only once the driver registered an
	// ISR). This is the fuzzer's handle on interrupt-timing races.
	IRQ []uint64 `json:"irq,omitempty"`
}

// Clone deep-copies the feed.
func (f *Feed) Clone() *Feed {
	return &Feed{
		Data:  append([]byte(nil), f.Data...),
		Forks: append([]byte(nil), f.Forks...),
		IRQ:   append([]uint64(nil), f.IRQ...),
	}
}

// Len returns the total decision payload in bytes (corpus accounting:
// shorter feeds are preferred at equal coverage).
func (f *Feed) Len() int { return len(f.Data) + len(f.Forks) + 8*len(f.IRQ) }

// Equal reports feed identity (used by tests and dedup).
func (f *Feed) Equal(o *Feed) bool {
	if len(f.IRQ) != len(o.IRQ) {
		return false
	}
	for i := range f.IRQ {
		if f.IRQ[i] != o.IRQ[i] {
			return false
		}
	}
	return bytes.Equal(f.Data, o.Data) && bytes.Equal(f.Forks, o.Forks)
}

// Marshal serializes the feed as JSON (corpus-directory format).
func (f *Feed) Marshal() ([]byte, error) { return json.Marshal(f) }

// UnmarshalFeed parses a serialized feed.
func UnmarshalFeed(b []byte) (*Feed, error) {
	var f Feed
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("fuzz: bad feed: %w", err)
	}
	return &f, nil
}

// SaveFeed writes a feed to a file.
func SaveFeed(f *Feed, path string) error {
	b, err := f.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// LoadFeed reads a feed from a file.
func LoadFeed(path string) (*Feed, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return UnmarshalFeed(b)
}

// feedReader is the per-execution cursor over an immutable feed.
type feedReader struct {
	feed *Feed
	pos  int // next byte of Data
	fork int // next byte of Forks
	irq  int // next entry of IRQ

	// words and forkBits count SEMANTIC consumption: word() calls and fork
	// decisions made, including reads past the end of a stream (which answer
	// zero without advancing the byte cursors). The byte cursors alone cannot
	// distinguish "read five words of a 4-byte feed" from "read one", and the
	// persistent-mode snapshot needs the semantic counts to compare and
	// restore boot prefixes exactly (see snapshot.go).
	words    int
	forkBits int
}

func (r *feedReader) reset(f *Feed) { *r = feedReader{feed: f} }

// clampCursors maps semantic consumption counts onto a concrete feed's
// byte cursors: the data cursor stops at the stream end (reads past it
// answered zero without advancing), the fork cursor likewise. This is THE
// definition of where a cold execution's cursors land after the given
// consumption — snapshot recording, memo serving, and resume all go
// through it so they cannot drift apart.
func clampCursors(f *Feed, words, forkBits int) (dataN, forkN int) {
	dataN = 4 * words
	if dataN > len(f.Data) {
		dataN = len(f.Data)
	}
	forkN = forkBits
	if forkN > len(f.Forks) {
		forkN = len(f.Forks)
	}
	return dataN, forkN
}

// resumeAt positions the reader over f as if words/forkBits/irqs had
// already been consumed — the recorded boot-prefix cursors of a snapshot.
// Valid only for feeds whose effective prefix matches the snapshot's
// (snapshot.matches), so the byte cursors land exactly where a cold
// execution of f would have left them.
func (r *feedReader) resumeAt(f *Feed, words, forkBits, irqs int) {
	pos, fork := clampCursors(f, words, forkBits)
	*r = feedReader{feed: f, pos: pos, fork: fork, irq: irqs, words: words, forkBits: forkBits}
}

// word consumes the next little-endian word; missing bytes read as zero.
func (r *feedReader) word() uint32 {
	var v uint32
	for i := 0; i < 4; i++ {
		if r.pos < len(r.feed.Data) {
			v |= uint32(r.feed.Data[r.pos]) << (8 * uint(i))
			r.pos++
		}
	}
	r.words++
	return v
}

// forkBit consumes the next fork decision.
func (r *feedReader) forkBit() bool {
	r.forkBits++
	if r.fork >= len(r.feed.Forks) {
		return false
	}
	b := r.feed.Forks[r.fork]
	r.fork++
	return b&1 == 1
}

// nextIRQ returns the next pending interrupt trigger, if any.
func (r *feedReader) nextIRQ() (uint64, bool) {
	if r.irq >= len(r.feed.IRQ) {
		return 0, false
	}
	return r.feed.IRQ[r.irq], true
}

func (r *feedReader) takeIRQ() { r.irq++ }

// consumed reports how much of each stream an execution actually read —
// the exact minimization trim for corpus entries.
func (r *feedReader) consumed() (data, forks, irqs int) {
	return r.pos, r.fork, r.irq
}
