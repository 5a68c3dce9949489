package expr

import (
	"fmt"
	"sync"
)

// Origin classifies where a symbolic value was injected, mirroring DDT's
// provenance tracking (§3.5–3.6 of the paper): traces record the creation
// point of every symbol so bug reports can explain what concrete input or
// hardware behaviour triggers a path.
type Origin uint8

// Symbol origins.
const (
	OriginUnknown    Origin = iota
	OriginHardware          // read from a symbolic device register (MMIO or port)
	OriginInterrupt         // symbolic interrupt arrival choice
	OriginRegistry          // configuration value from the simulated registry
	OriginPacket            // network packet contents handed to the driver
	OriginAPIReturn         // return value of an annotated kernel API
	OriginArgument          // driver entry-point argument made symbolic
	OriginAnnotation        // created explicitly by an annotation
)

var originNames = [...]string{
	OriginUnknown: "unknown", OriginHardware: "hardware", OriginInterrupt: "interrupt",
	OriginRegistry: "registry", OriginPacket: "packet", OriginAPIReturn: "api-return",
	OriginArgument: "argument", OriginAnnotation: "annotation",
}

func (o Origin) String() string {
	if int(o) < len(originNames) {
		return originNames[o]
	}
	return fmt.Sprintf("origin(%d)", uint8(o))
}

// SymbolInfo describes one symbolic variable.
type SymbolInfo struct {
	ID     SymID
	Name   string // human-readable, e.g. "hw_read_mmio_0x10" or "registry:MaximumMulticastList"
	Origin Origin
	PC     uint32 // driver program counter at creation, 0 if not applicable
	Seq    uint64 // machine instruction count at creation (creation time)
}

// SymbolTable allocates and describes symbolic variables for one DDT run.
// Each vm.Machine has its own, and its one stepping goroutine mints the
// symbols, so IDs are dense and unique across the run. The table is safe
// for concurrent use: minting and reads take one mutex.
type SymbolTable struct {
	mu   sync.Mutex
	syms []SymbolInfo
}

// NewSymbolTable returns an empty symbol table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{}
}

// Fresh allocates a new symbolic variable and returns an expression
// referring to it.
func (t *SymbolTable) Fresh(name string, origin Origin, pc uint32, seq uint64) *Expr {
	t.mu.Lock()
	id := SymID(len(t.syms))
	t.syms = append(t.syms, SymbolInfo{ID: id, Name: name, Origin: origin, PC: pc, Seq: seq})
	t.mu.Unlock()
	return Sym(id)
}

// Info returns the metadata for symbol id. It panics on out-of-range ids.
func (t *SymbolTable) Info(id SymID) SymbolInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.syms[id]
}

// Len returns the number of allocated symbols.
func (t *SymbolTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.syms)
}

// All returns a snapshot of every allocated symbol, in creation order.
func (t *SymbolTable) All() []SymbolInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SymbolInfo(nil), t.syms...)
}
