package vm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/isa"
)

// Register roles in spanFuzzProgram: r0-r8 are the data registers every
// generated instruction reads and writes; r9 holds the scratch area's
// address, r10/r11 the loop counter and limit. None of r9-r11 is ever a
// generated destination, so addresses stay concrete and the loop bounded.
const (
	spanFuzzDataRegs   = 9
	spanFuzzScratch    = 32 // bytes in the scratch data area
	spanFuzzMaxInstrs  = 48
	spanFuzzSymbolicRg = isa.R8
	// spanFuzzMaxSymbolic bounds the instructions a symbolic program
	// executes: each one can double an expression tree (add r8, r8, r8),
	// and sbStateSig prints trees in full.
	spanFuzzMaxSymbolic = 12
)

var spanFuzzRegOps = []string{"add", "sub", "mul", "divu", "remu", "and", "or", "xor", "shl", "shr", "sar"}

var spanFuzzImmOps = []string{"addi", "andi", "ori", "xori", "shli", "shri", "sari", "muli"}

var spanFuzzMemOps = []struct {
	op    string
	size  int
	store bool
}{{"ldw", 4, false}, {"ldh", 2, false}, {"ldb", 1, false}, {"stw", 4, true}, {"sth", 2, true}, {"stb", 1, true}}

// spanFuzzImm maps one byte to an immediate: small values as they are,
// and with the top bit set one of the edge cases for shifts and overflow.
func spanFuzzImm(b byte) uint32 {
	if b&0x80 == 0 {
		return uint32(b)
	}
	edges := [...]uint32{0, 1, 31, 32, 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF, 0xDEADBEEF}
	return edges[b&7]
}

// spanFuzzProgram decodes fuzz bytes into a straight-line program with one
// bounded backward loop. Header: data[0] picks the iteration count (low 2
// bits) and the loop length, data[1] the loop start and (low bit) whether
// r8 starts symbolic, which caps the program at spanFuzzMaxSymbolic
// executed instructions. Each following 3-byte group is one instruction: an
// opcode selector, a destination/source register pair, and a third byte
// that is rs2, an immediate, or a scratch offset.
func spanFuzzProgram(data []byte) (src string, symbolic bool) {
	var h0, h1 byte
	if len(data) >= 2 {
		h0, h1, data = data[0], data[1], data[2:]
	}
	symbolic = h1&1 != 0
	maxInstrs := spanFuzzMaxInstrs
	if symbolic {
		maxInstrs = spanFuzzMaxSymbolic
	}
	var body []string
	for ; len(data) >= 3 && len(body) < maxInstrs; data = data[3:] {
		sel, regs, arg := data[0], data[1], data[2]
		rd := int(regs) % spanFuzzDataRegs
		rs1 := int(regs/spanFuzzDataRegs) % spanFuzzDataRegs
		rs2 := int(arg) % spanFuzzDataRegs
		var ins string
		switch k := int(sel) % 6; k {
		case 0:
			ins = "nop"
		case 1:
			ins = fmt.Sprintf("mov r%d, r%d", rd, rs1)
		case 2:
			ins = fmt.Sprintf("movi r%d, %#x", rd, spanFuzzImm(arg))
		case 3:
			op := spanFuzzRegOps[int(sel/6)%len(spanFuzzRegOps)]
			ins = fmt.Sprintf("%s r%d, r%d, r%d", op, rd, rs1, rs2)
		case 4:
			op := spanFuzzImmOps[int(sel/6)%len(spanFuzzImmOps)]
			ins = fmt.Sprintf("%s r%d, r%d, %#x", op, rd, rs1, spanFuzzImm(arg))
		case 5:
			mo := spanFuzzMemOps[int(sel/6)%len(spanFuzzMemOps)]
			off := int(arg) % (spanFuzzScratch - mo.size + 1)
			if mo.store {
				ins = fmt.Sprintf("%s [r9+%d], r%d", mo.op, off, rd)
			} else {
				ins = fmt.Sprintf("%s r%d, [r9+%d]", mo.op, rd, off)
			}
		}
		body = append(body, ins)
	}

	n := len(body)
	start := int(h1>>1) % (n + 1)
	end := start + int(h0>>2)%(n-start+1)
	iters := int(h0&3) + 1
	for symbolic && iters > 1 && n+(end-start)*(iters-1) > spanFuzzMaxSymbolic {
		iters--
	}

	var sb strings.Builder
	sb.WriteString(".entry e\n.text\ne:\n    movi r9, buf\n    movi r10, 0\n")
	fmt.Fprintf(&sb, "    movi r11, %d\n", iters)
	for i, ins := range body {
		if i == start && end > start {
			sb.WriteString("loop:\n")
		}
		fmt.Fprintf(&sb, "    %s\n", ins)
		if i == end-1 && end > start {
			sb.WriteString("    addi r10, r10, 1\n    bltu r10, r11, loop\n")
		}
	}
	// Fold the scratch area into r0 so memory differences show up in the
	// final registers, which sbStateSig compares.
	for off := 0; off < spanFuzzScratch; off += 4 {
		fmt.Fprintf(&sb, "    ldw r1, [r9+%d]\n    xor r0, r0, r1\n", off)
	}
	sb.WriteString("    ret\n.data\nbuf: .word 0")
	for off := 4; off < spanFuzzScratch; off += 4 {
		sb.WriteString(", 0")
	}
	sb.WriteString("\n")
	return sb.String(), symbolic
}

// FuzzSpanMatchesGeneral is the randomized oracle for the span dispatcher:
// any program of register ops, immediates, scratch loads/stores and a
// bounded loop must leave the same registers, trace, faults and step
// accounting whether it runs through compiled spans or the general
// per-instruction exec.
func FuzzSpanMatchesGeneral(f *testing.F) {
	// Seed groups are {selector, rd + 9*rs1, arg}, with selector =
	// kind + 6*variant (kind 3: spanFuzzRegOps, 4: spanFuzzImmOps,
	// 5: spanFuzzMemOps).
	f.Add([]byte{})
	// A mul/divu/remu/mov chain in a loop, dividing by zero registers.
	f.Add([]byte{0x0D, 0x00,
		2, 1, 7, // movi r1, 7
		3 + 6*2, 2 + 9*1, 1, // mul r2, r1, r1
		3 + 6*3, 2 + 9*1, 0, // divu r2, r1, r0 (r0 == 0)
		3 + 6*4, 3 + 9*1, 4, // remu r3, r1, r4 (r4 == 0)
		1, 7 + 9*3, 0, // mov r7, r3
	})
	// Immediate and register shifts by 31 and 32, sign-bit arithmetic.
	f.Add([]byte{0x03, 0x02,
		2, 1, 0x85, // movi r1, 0x80000000
		4 + 6*6, 2 + 9*1, 0x83, // sari r2, r1, 32
		4 + 6*5, 3 + 9*1, 0x82, // shri r3, r1, 31
		4 + 6*7, 4 + 9*1, 0x87, // muli r4, r1, 0xDEADBEEF
		3 + 6*8, 5 + 9*1, 2, // shl r5, r1, r2
		3 + 6*10, 6 + 9*1, 3, // sar r6, r1, r3
	})
	// Stores and loads of every width, aligned and not, in a loop.
	f.Add([]byte{0x0E, 0x02,
		2, 2, 0x84, // movi r2, 0xFFFFFFFF
		5 + 6*3, 2, 0, // stw [r9+0], r2
		5 + 6*4, 1, 5, // sth [r9+5], r1
		5 + 6*5, 3, 31, // stb [r9+31], r3
		5, 4, 1, // ldw r4, [r9+1]
		5 + 6*1, 5, 3, // ldh r5, [r9+3]
		4, 4 + 9*1, 1, // addi r4, r1, 1
	})
	// Symbolic r8 flowing through ALU ops and memory mid-span.
	f.Add([]byte{0x0B, 0x01,
		3, 8 + 9*8, 8, // add r8, r8, r8
		4, 8 + 9*8, 3, // addi r8, r8, 3
		3 + 6*3, 0, 8, // divu r0, r0, r8
		5 + 6*3, 8, 8, // stw [r9+8], r8
		5, 6, 8, // ldw r6, [r9+8]
		1, 7 + 9*6, 0, // mov r7, r6
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		src, symbolic := spanFuzzProgram(data)
		var prep func(m *Machine, s *State)
		if symbolic {
			prep = func(m *Machine, s *State) {
				s.SetReg(spanFuzzSymbolicRg, m.Syms.Fresh("input", expr.OriginArgument, 0, 0))
			}
		}
		sbCompare(t, src, prep)
	})
}
