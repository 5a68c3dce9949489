// Package asm implements a two-pass assembler for d32, producing DXE driver
// images. The assembler exists to build the evaluation corpus — the
// "vendors' build toolchain" of this reproduction. DDT itself never sees
// assembly: it consumes the binary image only.
//
// Source syntax, line oriented, ';' or '#' to end of line is a comment:
//
//	.name rtl8029
//	.device vendor=0x10EC device=0x8029 class=network bar=256 ports=32 irq=9
//	.import NdisMRegisterMiniport
//	.entry DriverEntry
//	.text
//	DriverEntry:
//	    addi sp, sp, -8
//	    stw  [sp+0], lr
//	    movi r1, cfg_name        ; labels are absolute VAs
//	    call NdisMRegisterMiniport
//	    beq  r0, r12, fail
//	fail:
//	    ldw  lr, [sp+0]
//	    addi sp, sp, 8
//	    ret
//	.data
//	cfg_name: .asciz "MaximumMulticastList"
//	ring:     .space 64
//	caps:     .word 1, 2, 4, 8
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/binimg"
	"repro/internal/isa"
)

// Error describes an assembly failure with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type section int

const (
	secNone section = iota
	secText
	secData
)

type fixup struct {
	line    int
	textOff int    // instruction byte offset in text
	symbol  string // label or import to resolve into Imm
}

type dataFixup struct {
	line    int
	dataOff int
	symbol  string
}

type assembler struct {
	name    string
	entry   string
	device  binimg.PCIDescriptor
	imports []string
	impIdx  map[string]int

	text   []byte
	data   []byte
	bss    uint32
	sec    section
	labels map[string]labelRef // name -> section+offset
	fixups []fixup
	dfix   []dataFixup
	line   int
}

type labelRef struct {
	sec  section
	off  uint32
	line int
}

// Assemble translates d32 source into a DXE image.
func Assemble(src string) (*binimg.Image, error) {
	a := &assembler{
		impIdx: make(map[string]int),
		labels: make(map[string]labelRef),
		device: binimg.PCIDescriptor{BARSize: 256, IOPorts: 32, IRQLine: 9},
	}
	if err := a.run(src); err != nil {
		return nil, err
	}
	return a.finish()
}

func (a *assembler) errf(format string, args ...any) error {
	return &Error{Line: a.line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) run(src string) error {
	for i, raw := range strings.Split(src, "\n") {
		a.line = i + 1
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels: one or more "name:" prefixes.
		for {
			idx := strings.Index(line, ":")
			if idx < 0 {
				break
			}
			head := strings.TrimSpace(line[:idx])
			if !isIdent(head) {
				break
			}
			if err := a.defineLabel(head); err != nil {
				return err
			}
			line = strings.TrimSpace(line[idx+1:])
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			if err := a.directive(line); err != nil {
				return err
			}
			continue
		}
		if a.sec != secText {
			return a.errf("instruction outside .text: %q", line)
		}
		if err := a.instruction(line); err != nil {
			return err
		}
	}
	return nil
}

func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inStr = !inStr
		case ';', '#':
			if !inStr {
				return line[:i]
			}
		}
	}
	return line
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (a *assembler) defineLabel(name string) error {
	if prev, dup := a.labels[name]; dup {
		return a.errf("label %q already defined at line %d", name, prev.line)
	}
	switch a.sec {
	case secText:
		a.labels[name] = labelRef{secText, uint32(len(a.text)), a.line}
	case secData:
		a.labels[name] = labelRef{secData, uint32(len(a.data)) + a.bss, a.line}
	default:
		return a.errf("label %q outside any section", name)
	}
	return nil
}

func (a *assembler) directive(line string) error {
	fields := strings.Fields(line)
	dir := fields[0]
	rest := strings.TrimSpace(strings.TrimPrefix(line, dir))
	switch dir {
	case ".text":
		a.sec = secText
	case ".data":
		a.sec = secData
	case ".name":
		if len(rest) > binimg.MaxName {
			return a.errf(".name longer than %d bytes", binimg.MaxName)
		}
		a.name = rest
	case ".entry":
		a.entry = rest
	case ".import":
		name := rest
		if name == "" {
			return a.errf(".import requires a name")
		}
		if len(name) > binimg.MaxName {
			return a.errf(".import name longer than %d bytes", binimg.MaxName)
		}
		if _, dup := a.impIdx[name]; dup {
			return a.errf("duplicate import %q", name)
		}
		a.impIdx[name] = len(a.imports)
		a.imports = append(a.imports, name)
	case ".device":
		return a.deviceDirective(rest)
	case ".word":
		if a.sec != secData {
			return a.errf(".word outside .data")
		}
		if a.bss > 0 {
			return a.errf("initialized data after .space (bss must come last)")
		}
		for _, f := range strings.Split(rest, ",") {
			f = strings.TrimSpace(f)
			if v, err := a.parseImm(f); err == nil {
				a.emitDataWord(v)
			} else if isIdent(f) {
				a.dfix = append(a.dfix, dataFixup{a.line, len(a.data), f})
				a.emitDataWord(0)
			} else {
				return a.errf("bad .word operand %q", f)
			}
		}
	case ".asciz":
		if a.sec != secData {
			return a.errf(".asciz outside .data")
		}
		if a.bss > 0 {
			return a.errf("initialized data after .space (bss must come last)")
		}
		s, err := strconv.Unquote(rest)
		if err != nil {
			return a.errf("bad string %s: %v", rest, err)
		}
		a.data = append(a.data, s...)
		a.data = append(a.data, 0)
		for len(a.data)%4 != 0 {
			a.data = append(a.data, 0)
		}
	case ".space":
		if a.sec != secData {
			return a.errf(".space outside .data")
		}
		n, err := a.parseImm(rest)
		if err != nil {
			return a.errf("bad .space size: %v", err)
		}
		if a.bss == 0 {
			// Align initialized data to 8 so that bss label offsets (which
			// are relative to the data base) land exactly at BSSBase, and
			// move labels already pointing at the old end of data (the
			// usual "ring: .space 64" pattern) past the padding.
			oldLen := uint32(len(a.data))
			for len(a.data)%8 != 0 {
				a.data = append(a.data, 0)
			}
			newLen := uint32(len(a.data))
			if newLen != oldLen {
				for name, ref := range a.labels {
					if ref.sec == secData && ref.off == oldLen {
						ref.off = newLen
						a.labels[name] = ref
					}
				}
			}
		}
		// Sum in 64 bits: word-rounded sizes near 4 GiB would otherwise
		// wrap the total to a small bss the image limit cannot catch.
		bss := uint64(a.bss) + (uint64(n)+3)&^3
		if bss > binimg.MaxSection {
			return a.errf(".space %d: bss exceeds %d bytes", n, binimg.MaxSection)
		}
		a.bss = uint32(bss)
	default:
		return a.errf("unknown directive %q", dir)
	}
	return nil
}

func (a *assembler) deviceDirective(rest string) error {
	for _, kv := range strings.Fields(rest) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return a.errf("bad .device field %q", kv)
		}
		switch k {
		case "class":
			switch v {
			case "network":
				a.device.Class = binimg.ClassNetwork
			case "audio":
				a.device.Class = binimg.ClassAudio
			case "other":
				a.device.Class = binimg.ClassOther
			case "storage":
				a.device.Class = binimg.ClassStorage
			default:
				return a.errf("unknown device class %q", v)
			}
			continue
		}
		n, err := a.parseImm(v)
		if err != nil {
			return a.errf("bad .device value %q: %v", kv, err)
		}
		switch k {
		case "vendor":
			a.device.VendorID = uint16(n)
		case "device":
			a.device.DeviceID = uint16(n)
		case "bar":
			a.device.BARSize = n
		case "ports":
			a.device.IOPorts = uint16(n)
		case "irq":
			a.device.IRQLine = uint8(n)
		case "rev":
			a.device.Revision = uint8(n)
		default:
			return a.errf("unknown .device key %q", k)
		}
	}
	return nil
}

func (a *assembler) emitDataWord(v uint32) {
	a.data = append(a.data, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (a *assembler) parseImm(s string) (uint32, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "+")
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, err
	}
	u := uint32(v)
	if neg {
		u = -u
	}
	return u, nil
}

func parseReg(s string) (uint8, bool) {
	switch s {
	case "sp":
		return isa.SP, true
	case "lr":
		return isa.LR, true
	}
	if strings.HasPrefix(s, "r") {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < isa.NumRegs {
			return uint8(n), true
		}
	}
	return 0, false
}

// parseMem parses "[reg]", "[reg+imm]", "[reg-imm]".
func (a *assembler) parseMem(s string) (uint8, uint32, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, a.errf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	sep := strings.IndexAny(inner, "+-")
	if sep < 0 {
		r, ok := parseReg(strings.TrimSpace(inner))
		if !ok {
			return 0, 0, a.errf("bad base register in %q", s)
		}
		return r, 0, nil
	}
	r, ok := parseReg(strings.TrimSpace(inner[:sep]))
	if !ok {
		return 0, 0, a.errf("bad base register in %q", s)
	}
	imm, err := a.parseImm(inner[sep:])
	if err != nil {
		return 0, 0, a.errf("bad offset in %q: %v", s, err)
	}
	return r, imm, nil
}

func (a *assembler) instruction(line string) error {
	mn, rest, _ := strings.Cut(line, " ")
	mn = strings.TrimSpace(mn)
	op, ok := isa.OpcodeByName(mn)
	if !ok {
		return a.errf("unknown mnemonic %q", mn)
	}
	ops := splitOperands(rest)
	in := isa.Instr{Op: op}

	reg := func(i int) (uint8, error) {
		if i >= len(ops) {
			return 0, a.errf("%s: missing operand %d", mn, i+1)
		}
		r, ok := parseReg(ops[i])
		if !ok {
			return 0, a.errf("%s: bad register %q", mn, ops[i])
		}
		return r, nil
	}
	immOrSym := func(i int) (uint32, error) {
		if i >= len(ops) {
			return 0, a.errf("%s: missing operand %d", mn, i+1)
		}
		s := ops[i]
		if v, err := a.parseImm(s); err == nil {
			return v, nil
		}
		if isIdent(s) {
			a.fixups = append(a.fixups, fixup{a.line, len(a.text), s})
			return 0, nil
		}
		return 0, a.errf("%s: bad immediate %q", mn, s)
	}

	var err error
	switch op {
	case isa.NOP, isa.RET, isa.HLT:
		if len(ops) != 0 {
			return a.errf("%s takes no operands", mn)
		}
	case isa.MOVI:
		if in.Rd, err = reg(0); err != nil {
			return err
		}
		if in.Imm, err = immOrSym(1); err != nil {
			return err
		}
	case isa.MOV:
		if in.Rd, err = reg(0); err != nil {
			return err
		}
		if in.Rs1, err = reg(1); err != nil {
			return err
		}
	case isa.ADD, isa.SUB, isa.MUL, isa.DIVU, isa.REMU, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR:
		if in.Rd, err = reg(0); err != nil {
			return err
		}
		if in.Rs1, err = reg(1); err != nil {
			return err
		}
		if in.Rs2, err = reg(2); err != nil {
			return err
		}
	case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI, isa.SARI, isa.MULI:
		if in.Rd, err = reg(0); err != nil {
			return err
		}
		if in.Rs1, err = reg(1); err != nil {
			return err
		}
		if in.Imm, err = immOrSym(2); err != nil {
			return err
		}
	case isa.LDW, isa.LDH, isa.LDB:
		if in.Rd, err = reg(0); err != nil {
			return err
		}
		if len(ops) < 2 {
			return a.errf("%s: missing memory operand", mn)
		}
		if in.Rs1, in.Imm, err = a.parseMem(ops[1]); err != nil {
			return err
		}
	case isa.STW, isa.STH, isa.STB:
		if len(ops) < 2 {
			return a.errf("%s: missing operands", mn)
		}
		if in.Rs1, in.Imm, err = a.parseMem(ops[0]); err != nil {
			return err
		}
		if in.Rd, err = reg(1); err != nil {
			return err
		}
	case isa.PUSH, isa.POP:
		if in.Rd, err = reg(0); err != nil {
			return err
		}
	case isa.BEQ, isa.BNE, isa.BLTU, isa.BGEU, isa.BLT, isa.BGE:
		if in.Rs1, err = reg(0); err != nil {
			return err
		}
		if in.Rs2, err = reg(1); err != nil {
			return err
		}
		if in.Imm, err = immOrSym(2); err != nil {
			return err
		}
	case isa.JMP, isa.CALL:
		if in.Imm, err = immOrSym(0); err != nil {
			return err
		}
	case isa.JR, isa.CALLR:
		if in.Rs1, err = reg(0); err != nil {
			return err
		}
	case isa.IN:
		if in.Rd, err = reg(0); err != nil {
			return err
		}
		if in.Rs1, err = reg(1); err != nil {
			return err
		}
	case isa.OUT:
		// out port_reg, value_reg — port in Rs1, value in Rd (encoding quirk
		// shared with the store family).
		if in.Rs1, err = reg(0); err != nil {
			return err
		}
		if in.Rd, err = reg(1); err != nil {
			return err
		}
	default:
		return a.errf("unhandled opcode %q", mn)
	}

	var buf [isa.InstrSize]byte
	in.Encode(buf[:])
	a.text = append(a.text, buf[:]...)
	return nil
}

func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func (a *assembler) resolve(sym string, line int) (uint32, error) {
	if ref, ok := a.labels[sym]; ok {
		switch ref.sec {
		case secText:
			return isa.ImageBase + ref.off, nil
		case secData:
			dataBase := isa.ImageBase + align8(uint32(len(a.text)))
			dataLen := uint32(len(a.data))
			if ref.off <= dataLen {
				return dataBase + ref.off, nil
			}
			// Label inside bss: bss starts at the 8-byte-aligned end of the
			// initialized data.
			return dataBase + align8(dataLen) + (ref.off - dataLen), nil
		}
	}
	if slot, ok := a.impIdx[sym]; ok {
		return isa.TrapAddr(slot), nil
	}
	return 0, &Error{Line: line, Msg: fmt.Sprintf("undefined symbol %q", sym)}
}

func align8(v uint32) uint32 { return (v + 7) &^ 7 }

func (a *assembler) finish() (*binimg.Image, error) {
	if a.entry == "" {
		return nil, &Error{Line: 0, Msg: "missing .entry"}
	}
	for _, f := range a.fixups {
		va, err := a.resolve(f.symbol, f.line)
		if err != nil {
			return nil, err
		}
		a.text[f.textOff+4] = byte(va)
		a.text[f.textOff+5] = byte(va >> 8)
		a.text[f.textOff+6] = byte(va >> 16)
		a.text[f.textOff+7] = byte(va >> 24)
	}
	for _, f := range a.dfix {
		va, err := a.resolve(f.symbol, f.line)
		if err != nil {
			return nil, err
		}
		a.data[f.dataOff] = byte(va)
		a.data[f.dataOff+1] = byte(va >> 8)
		a.data[f.dataOff+2] = byte(va >> 16)
		a.data[f.dataOff+3] = byte(va >> 24)
	}
	entryRef, ok := a.labels[a.entry]
	if !ok || entryRef.sec != secText {
		return nil, &Error{Line: 0, Msg: fmt.Sprintf("entry label %q not defined in .text", a.entry)}
	}
	im := &binimg.Image{
		Name:    a.name,
		Entry:   isa.ImageBase + entryRef.off,
		Text:    a.text,
		Data:    a.data,
		BSSSize: a.bss,
		Imports: a.imports,
		Device:  a.device,
	}
	// Round-trip through Marshal/Parse to guarantee the emitted image is
	// well-formed by construction.
	parsed, err := binimg.Parse(im.Marshal())
	if err != nil {
		return nil, fmt.Errorf("asm: emitted image fails validation: %w", err)
	}
	return parsed, nil
}
