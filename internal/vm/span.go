package vm

import "repro/internal/isa"

// uop is one pre-lowered span micro-op: the opcode dispatch is decided
// once per instruction slot at NewMachine time, leaving only a direct call
// through fn with the operands already extracted. A uop either completes
// the instruction on the state's own register words (returning true) or
// reports false to route that one instruction through the general exec,
// which stays the reference semantics for every instruction.
type uop struct {
	fn  func(u *uop, s *State) bool
	alu func(x, y uint32) uint32
	imm uint32
	rd  uint8
	rs1 uint8
	rs2 uint8
}

func uopGeneral(_ *uop, _ *State) bool { return false }

func uopNop(_ *uop, _ *State) bool { return true }

func uopMovi(u *uop, s *State) bool {
	s.regs[u.rd], s.sym[u.rd] = u.imm, nil
	return true
}

func uopMov(u *uop, s *State) bool {
	s.regs[u.rd], s.sym[u.rd] = s.regs[u.rs1], s.sym[u.rs1]
	return true
}

func uopAluRR(u *uop, s *State) bool {
	if s.sym[u.rs1] != nil || s.sym[u.rs2] != nil {
		return false
	}
	s.regs[u.rd], s.sym[u.rd] = u.alu(s.regs[u.rs1], s.regs[u.rs2]), nil
	return true
}

func uopAluRI(u *uop, s *State) bool {
	if s.sym[u.rs1] != nil {
		return false
	}
	s.regs[u.rd], s.sym[u.rd] = u.alu(s.regs[u.rs1], u.imm), nil
	return true
}

// aluFn returns the concrete ALU function for op, for every two-operand
// ALU operation (register and immediate forms share these). It is the one
// concrete ALU: span micro-ops and the general exec both compute concrete
// operands through it. The arithmetic replicates the expr constant folds
// bit for bit (FuzzAluMatchesExprFold), which is what keeps concrete
// execution invisible to every observer.
func aluFn(op isa.Opcode) func(x, y uint32) uint32 {
	switch op {
	case isa.ADD, isa.ADDI:
		return func(x, y uint32) uint32 { return x + y }
	case isa.SUB:
		return func(x, y uint32) uint32 { return x - y }
	case isa.MUL, isa.MULI:
		return func(x, y uint32) uint32 { return x * y }
	case isa.DIVU:
		return func(x, y uint32) uint32 {
			if y == 0 {
				return 0xFFFFFFFF
			}
			return x / y
		}
	case isa.REMU:
		return func(x, y uint32) uint32 {
			if y == 0 {
				return x
			}
			return x % y
		}
	case isa.AND, isa.ANDI:
		return func(x, y uint32) uint32 { return x & y }
	case isa.OR, isa.ORI:
		return func(x, y uint32) uint32 { return x | y }
	case isa.XOR, isa.XORI:
		return func(x, y uint32) uint32 { return x ^ y }
	case isa.SHL, isa.SHLI:
		return func(x, y uint32) uint32 { return x << (y & 31) }
	case isa.SHR, isa.SHRI:
		return func(x, y uint32) uint32 { return x >> (y & 31) }
	case isa.SAR, isa.SARI:
		return func(x, y uint32) uint32 { return uint32(int32(x) >> (y & 31)) }
	}
	return nil
}

// lowerUop pre-lowers one decoded instruction into its span micro-op.
// Instructions the fast path cannot complete (memory, stack, ports,
// control flow) lower to uopGeneral and always take the general exec.
func lowerUop(in *isa.Instr) uop {
	switch in.Op {
	case isa.NOP:
		return uop{fn: uopNop}
	case isa.MOVI:
		return uop{fn: uopMovi, imm: in.Imm, rd: in.Rd}
	case isa.MOV:
		return uop{fn: uopMov, rd: in.Rd, rs1: in.Rs1}
	case isa.ADD, isa.SUB, isa.MUL, isa.DIVU, isa.REMU,
		isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR:
		return uop{fn: uopAluRR, alu: aluFn(in.Op), rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2}
	case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SHLI, isa.SHRI, isa.SARI, isa.MULI:
		return uop{fn: uopAluRI, alu: aluFn(in.Op), imm: in.Imm, rd: in.Rd, rs1: in.Rs1}
	default:
		return uop{fn: uopGeneral}
	}
}

// runSpan executes up to budget instructions of the straight-line span that
// starts at instruction index idx, without re-entering the step dispatcher
// per instruction. The span table guarantees every instruction in
// [idx, idx+spanLen[idx]) is validly decoded and non-control-flow, so:
//
//   - no instruction in the span can be a block entry (those only follow
//     control transfers), so no hook or trace event is owed between
//     instructions unless an instruction itself produces one;
//   - every instruction advances PC sequentially, so PC can be tracked as
//     an index and materialized only when needed;
//   - pure register ops (MOV/MOVI/ALU) over concrete values run on the
//     state's register words with no expr allocation at all.
//
// Anything else — memory ops, port I/O, a symbolic operand — falls back to
// the general exec for that one instruction with the architectural state
// (PC, ICount) synced first, so events it emits carry exactly the
// sequence numbers the per-instruction path would have produced. If
// that instruction ends the straight-line guarantees (fault, status
// change, pending fault from a hook), runSpan bails out immediately and
// the caller resumes mid-span at the precise next instruction.
//
// The preamble in step has already credited one step for the first
// instruction (mirroring the per-instruction path); runSpan credits the
// rest. Net effect: executing N span instructions is bit-identical to N
// Step calls, with one dispatch instead of N.
func (m *Machine) runSpan(s *State, idx uint32, budget uint64) ([]*State, error) {
	maxN := uint64(m.spanLen[idx])
	if budget < maxN {
		maxN = budget
	}
	base := s.ICount
	i := idx
	executed := uint64(0) // instructions completed in this dispatch
	steps := m.Steps - 1  // the count before the preamble credited one

	for executed < maxN {
		if u := &m.uops[i]; u.fn(u, s) {
			executed++
			i++
			continue
		}
		in := &m.instrs[i]

		// General path for this one instruction: make the architectural
		// state exact first, exactly as the per-instruction dispatcher
		// would see it.
		s.PC = isa.ImageBase + i*isa.InstrSize
		s.ICount = base + executed
		s.ICount++
		executed++
		m.Steps = steps + executed
		out, err := m.exec(s, *in)
		if err != nil || len(out) != 1 || out[0] != s ||
			s.Status != StatusRunning || s.BlockStart || s.PendFault != nil ||
			s.PC != isa.ImageBase+(i+1)*isa.InstrSize {
			// The instruction ended the span's straight-line guarantees
			// (fault, status change, hook-raised pending fault) — bail out.
			// State is already fully synced; the caller's next dispatch
			// resumes at the exact instruction the per-instruction path
			// would execute next.
			return out, err
		}
		i++
	}

	s.PC = isa.ImageBase + i*isa.InstrSize
	s.ICount = base + executed
	m.Steps = steps + executed
	return m.only(s), nil
}
