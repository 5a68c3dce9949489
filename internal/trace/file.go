// Package trace implements DDT's executable traces (§3.5): self-contained
// records of a buggy execution path — every basic block, memory access,
// branch decision, symbolic-value creation site, interrupt injection point,
// and annotation fork — plus the solved concrete inputs, serialized so the
// bug can be re-executed deterministically ("replayed") on another machine
// and post-processed into human-readable reports (§3.6).
package trace

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/vm"
)

// Record is the serializable form of one vm.Event.
type Record struct {
	Kind   uint8
	Seq    uint64
	PC     uint32
	Addr   uint32
	Size   uint8
	Write  bool
	Sym    int32
	Taken  bool
	Forked bool
	Name   string
	Val    string // rendered expression, for human consumption
}

// SymbolRecord describes one symbolic input with its solved value.
type SymbolRecord struct {
	ID     int32
	Name   string
	Origin string
	PC     uint32
	Seq    uint64
	Value  uint32 // solved concrete value from the path model
}

// BugRecord carries the failure the trace demonstrates.
type BugRecord struct {
	Class string
	Msg   string
	PC    uint32
	// Site is the fault site the bug is keyed by (vm.Machine.FaultSite).
	Site  uint32
	Entry string
}

// File is a complete executable trace.
type File struct {
	Version     int
	Driver      string
	Annotations bool
	Registry    map[string]uint32
	// Scenario, MaxStepsPerPath and LoopThreshold are the engine options
	// of the recording run that shape a path: the workload plan the entry
	// chain and edge choices belong to, and the per-entry step and
	// per-block repeat bounds the replay must not undercut.
	Scenario        string
	MaxStepsPerPath uint64
	LoopThreshold   uint64
	Bug             BugRecord
	Symbols         []SymbolRecord
	Events          []Record
}

// FileVersion is the current trace format version. Version 2 records every
// fork decision (annotation forks on both sides, scenario-edge choices),
// the bug's fault site, and the recording run's scenario and path bounds; a
// version 1 trace lacks the primary-side decisions, so its fork stream
// cannot be rebuilt and it is rejected.
const FileVersion = 2

// New builds an executable trace from a DDT bug report. annotations and
// registry must reflect the options of the run that found the bug, so the
// replay recreates the identical environment. The scenario and path bounds
// are core.DefaultOptions'; a caller whose run used others sets them.
func New(bug *core.Bug, driver string, annotations bool, registry map[string]uint32) *File {
	def := core.DefaultOptions()
	f := &File{
		Version:         FileVersion,
		Driver:          driver,
		Annotations:     annotations,
		Registry:        make(map[string]uint32, len(registry)),
		Scenario:        def.Scenario,
		MaxStepsPerPath: def.MaxStepsPerPath,
		LoopThreshold:   def.LoopThreshold,
		Bug: BugRecord{
			Class: bug.Class,
			Msg:   bug.Fault.Msg,
			PC:    bug.Fault.PC,
			Site:  bug.Site,
			Entry: bug.Entry,
		},
	}
	for k, v := range registry {
		f.Registry[k] = v
	}
	for _, si := range bug.Symbols {
		f.Symbols = append(f.Symbols, SymbolRecord{
			ID:     int32(si.ID),
			Name:   si.Name,
			Origin: si.Origin.String(),
			PC:     si.PC,
			Seq:    si.Seq,
			Value:  bug.Model[si.ID],
		})
	}
	for _, ev := range bug.Trace {
		r := Record{
			Kind: uint8(ev.Kind), Seq: ev.Seq, PC: ev.PC, Addr: ev.Addr,
			Size: ev.Size, Write: ev.Write, Sym: int32(ev.Sym),
			Taken: ev.Taken, Forked: ev.Forked, Name: ev.Name,
		}
		if ev.Val != nil {
			r.Val = ev.Val.String()
		} else if ev.Cond != nil {
			r.Val = ev.Cond.String()
		}
		f.Events = append(f.Events, r)
	}
	return f
}

// Marshal serializes the trace (gob).
func (f *File) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		return nil, fmt.Errorf("trace: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Unmarshal parses a serialized trace.
func Unmarshal(b []byte) (*File, error) {
	var f File
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if f.Version != FileVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", f.Version)
	}
	return &f, nil
}

// Save writes the trace to a file.
func (f *File) Save(path string) error {
	b, err := f.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads a trace from a file.
func Load(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(b)
}

// EventsOf returns the trace records of one event kind, in path order.
func (f *File) EventsOf(kind vm.EventKind) []Record {
	var out []Record
	for _, r := range f.Events {
		if vm.EventKind(r.Kind) == kind {
			out = append(out, r)
		}
	}
	return out
}

// Entries returns the entry-point invocation sequence of the path.
func (f *File) Entries() []string {
	var out []string
	for _, r := range f.EventsOf(vm.EvEntry) {
		out = append(out, r.Name)
	}
	return out
}

// Summary renders the human-readable post-processed report of §3.6:
// the path's entry chain, the symbolic inputs with their provenance and
// concrete assignment, the interrupt injections, and the failure.
func (f *File) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Executable trace: driver %q\n", f.Driver)
	fmt.Fprintf(&b, "Bug: [%s] %s\n", f.Bug.Class, f.Bug.Msg)
	fmt.Fprintf(&b, "     raised at pc %#x while exercising entry %q\n", f.Bug.PC, f.Bug.Entry)
	fmt.Fprintf(&b, "Path: %s\n", strings.Join(f.Entries(), " -> "))
	if n := len(f.EventsOf(vm.EvInterrupt)); n > 0 {
		fmt.Fprintf(&b, "Symbolic interrupts injected: %d\n", n)
	}
	if len(f.Symbols) == 0 {
		b.WriteString("Inputs: none (concrete path)\n")
	} else {
		b.WriteString("Inputs (solved from path constraints):\n")
		for _, s := range f.Symbols {
			fmt.Fprintf(&b, "  %-28s %-10s created at pc %#x = %#x\n", s.Name, s.Origin, s.PC, s.Value)
		}
	}
	blocks := len(f.EventsOf(vm.EvBlock))
	mems := len(f.EventsOf(vm.EvMem))
	branches := len(f.EventsOf(vm.EvBranch))
	fmt.Fprintf(&b, "Trace: %d events (%d blocks, %d memory accesses, %d branches)\n",
		len(f.Events), blocks, mems, branches)
	return b.String()
}
