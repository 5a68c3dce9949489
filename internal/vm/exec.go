package vm

import (
	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/solver"
)

// exec executes the decoded instruction in on s. The PC still points at in;
// exec advances it. Concrete operands run on the register words; an
// expression is built only when an operand is symbolic.
func (m *Machine) exec(s *State, in isa.Instr) ([]*State, error) {
	next := s.PC + isa.InstrSize

	switch in.Op {
	case isa.NOP:
		s.PC = next

	case isa.MOVI:
		s.SetRegConcrete(in.Rd, in.Imm)
		s.PC = next
	case isa.MOV:
		s.regs[in.Rd], s.sym[in.Rd] = s.regs[in.Rs1], s.sym[in.Rs1]
		s.PC = next

	case isa.ADD, isa.SUB, isa.MUL, isa.DIVU, isa.REMU,
		isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR:
		s.alu(in.Op, in.Rd, in.Rs1, s.regs[in.Rs2], s.sym[in.Rs2])
		s.PC = next
	case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SHLI, isa.SHRI, isa.SARI, isa.MULI:
		s.alu(in.Op, in.Rd, in.Rs1, in.Imm, nil)
		s.PC = next

	case isa.LDW, isa.LDH, isa.LDB:
		if err := m.load(s, in.Rd, in.Rs1, in.Imm, loadStoreSize(in.Op)); err != nil {
			s.Status = StatusBug
			return nil, err
		}
		s.PC = next

	case isa.STW, isa.STH, isa.STB:
		if err := m.store(s, in.Rs1, in.Imm, loadStoreSize(in.Op), in.Rd); err != nil {
			s.Status = StatusBug
			return nil, err
		}
		s.PC = next

	case isa.PUSH:
		s.alu(isa.SUB, isa.SP, isa.SP, 4, nil)
		if err := m.store(s, isa.SP, 0, 4, in.Rd); err != nil {
			s.Status = StatusBug
			return nil, err
		}
		s.PC = next
	case isa.POP:
		if err := m.load(s, in.Rd, isa.SP, 0, 4); err != nil {
			s.Status = StatusBug
			return nil, err
		}
		s.alu(isa.ADD, isa.SP, isa.SP, 4, nil)
		s.PC = next

	case isa.BEQ, isa.BNE, isa.BLTU, isa.BGEU, isa.BLT, isa.BGE:
		return m.branch(s, in)

	case isa.JMP:
		s.PC = in.Imm
		m.MarkBlockStart(s)
	case isa.JR:
		return m.jumpIndirect(s, in.Rs1, false)

	case isa.CALL:
		s.SetRegConcrete(isa.LR, next)
		if slot, ok := isa.InTrapWindow(in.Imm); ok {
			return m.apiCall(s, slot)
		}
		s.PC = in.Imm
		m.MarkBlockStart(s)
	case isa.CALLR:
		s.SetRegConcrete(isa.LR, next)
		return m.jumpIndirect(s, in.Rs1, true)
	case isa.RET:
		return m.jumpIndirect(s, isa.LR, false)

	case isa.IN:
		port, err := m.regValue(s, in.Rs1, "port")
		if err != nil {
			s.Status = StatusBug
			return nil, err
		}
		if m.ReadPort != nil {
			s.SetReg(in.Rd, m.ReadPort(s, port))
		} else {
			s.SetRegConcrete(in.Rd, 0)
		}
		s.PC = next
	case isa.OUT:
		port, err := m.regValue(s, in.Rs1, "port")
		if err != nil {
			s.Status = StatusBug
			return nil, err
		}
		if m.WritePort != nil {
			m.WritePort(s, port, s.Reg(in.Rd))
		}
		s.PC = next

	case isa.HLT:
		s.Status = StatusHalted
		return nil, nil

	default:
		s.Status = StatusBug
		return nil, Faultf("memory", s.PC, "unimplemented opcode %s", in.Op.Name())
	}
	return m.only(s), nil
}

// alu sets rd to rs1 op y, where y is a word or, when ySym is non-nil, a
// symbolic value. Concrete operands go through aluFn, the one concrete ALU;
// otherwise the expression is built, and its constant folds are what aluFn
// replicates bit for bit (FuzzAluMatchesExprFold).
func (s *State) alu(op isa.Opcode, rd, rs1 uint8, y uint32, ySym *expr.Expr) {
	if s.sym[rs1] == nil && ySym == nil {
		s.SetRegConcrete(rd, aluFn(op)(s.regs[rs1], y))
		return
	}
	if ySym == nil {
		ySym = expr.Const(y)
	}
	s.SetReg(rd, aluExpr(op)(s.Reg(rs1), ySym))
}

// aluExpr returns the expression builder of a two-operand ALU operation
// (register and immediate forms share these), the symbolic twin of aluFn.
func aluExpr(op isa.Opcode) func(x, y *expr.Expr) *expr.Expr {
	switch op {
	case isa.ADD, isa.ADDI:
		return expr.Add
	case isa.SUB:
		return expr.Sub
	case isa.MUL, isa.MULI:
		return expr.Mul
	case isa.DIVU:
		return expr.UDiv
	case isa.REMU:
		return expr.URem
	case isa.AND, isa.ANDI:
		return expr.And
	case isa.OR, isa.ORI:
		return expr.Or
	case isa.XOR, isa.XORI:
		return expr.Xor
	case isa.SHL, isa.SHLI:
		return expr.Shl
	case isa.SHR, isa.SHRI:
		return expr.Lshr
	case isa.SAR, isa.SARI:
		return expr.Ashr
	}
	return nil
}

// regValue returns register r's value, concretizing a symbolic one under
// the name what.
func (m *Machine) regValue(s *State, r uint8, what string) (uint32, error) {
	if e := s.sym[r]; e != nil {
		return m.Concretize(s, e, what)
	}
	return s.regs[r], nil
}

func loadStoreSize(op isa.Opcode) uint32 {
	switch op {
	case isa.LDW, isa.STW:
		return 4
	case isa.LDH, isa.STH:
		return 2
	default:
		return 1
	}
}

func (m *Machine) effectiveAddr(s *State, base uint8, imm uint32, size uint32, write bool) (uint32, error) {
	if s.sym[base] == nil {
		return s.regs[base] + imm, nil
	}
	addr := expr.Add(s.sym[base], expr.Const(imm))
	if m.PinAddress != nil {
		if val, ok := m.PinAddress(s, addr, size, write); ok {
			s.AddConstraint(expr.Eq(addr, expr.Const(val)))
			s.Trace.Append(Event{
				Kind: EvConcretize, Seq: s.ICount, PC: s.PC,
				Val: expr.Const(val), Name: "address",
			})
			return val, nil
		}
	}
	return m.Concretize(s, addr, "address")
}

// load sets rd to the size bytes at base+imm. Concrete bytes land in the
// register word directly.
func (m *Machine) load(s *State, rd, base uint8, imm, size uint32) error {
	addr, err := m.effectiveAddr(s, base, imm, size, false)
	if err != nil {
		return err
	}
	if addr >= isa.MMIOBase && addr < isa.MMIOLimit {
		if m.ReadDevice != nil {
			s.SetReg(rd, m.ReadDevice(s, addr, size))
		} else {
			s.SetRegConcrete(rd, 0)
		}
		return nil
	}
	if m.OnMemAccess != nil {
		if err := m.OnMemAccess(s, s.PC, addr, size, false, nil); err != nil {
			return err
		}
	}
	if v, ok := s.Mem.ReadConcrete(addr, size); ok {
		s.SetRegConcrete(rd, v)
	} else {
		s.SetReg(rd, s.Mem.readSym(addr, size))
	}
	if s.Trace != nil {
		s.Trace.Append(Event{Kind: EvMem, Seq: s.ICount, PC: s.PC, Addr: addr, Size: uint8(size), Write: false, Val: s.Reg(rd)})
	}
	return nil
}

// store writes the low size bytes of register rd to base+imm. A concrete
// value goes to the page bytes as a word; it is boxed, once, only for the
// hooks and the trace that take an expression.
func (m *Machine) store(s *State, base uint8, imm, size uint32, rd uint8) error {
	addr, err := m.effectiveAddr(s, base, imm, size, true)
	if err != nil {
		return err
	}
	mmio := addr >= isa.MMIOBase && addr < isa.MMIOLimit
	v := s.sym[rd]
	concrete := v == nil
	if concrete && (mmio || m.OnMemAccess != nil || s.Trace != nil) {
		v = expr.Const(s.regs[rd])
	}
	if mmio {
		if m.WriteDevice != nil {
			m.WriteDevice(s, addr, size, v)
		}
		return nil
	}
	if m.OnMemAccess != nil {
		if err := m.OnMemAccess(s, s.PC, addr, size, true, v); err != nil {
			return err
		}
	}
	if concrete {
		s.Mem.WriteConcrete(addr, size, s.regs[rd])
	} else {
		s.Mem.Write(addr, size, v)
	}
	s.Trace.Append(Event{Kind: EvMem, Seq: s.ICount, PC: s.PC, Addr: addr, Size: uint8(size), Write: true, Val: v})
	return nil
}

// branchTaken decides a conditional branch on concrete operands: the
// constant fold of branchCond's comparison.
func branchTaken(op isa.Opcode, x, y uint32) bool {
	switch op {
	case isa.BEQ:
		return x == y
	case isa.BNE:
		return x != y
	case isa.BLTU:
		return x < y
	case isa.BGEU:
		return x >= y
	case isa.BLT:
		return int32(x) < int32(y)
	default: // BGE
		return int32(x) >= int32(y)
	}
}

// branchCond builds the taken-condition of a conditional branch.
func branchCond(s *State, in isa.Instr) *expr.Expr {
	a, b := s.Reg(in.Rs1), s.Reg(in.Rs2)
	switch in.Op {
	case isa.BEQ:
		return expr.Eq(a, b)
	case isa.BNE:
		return expr.Ne(a, b)
	case isa.BLTU:
		return expr.ULt(a, b)
	case isa.BGEU:
		return expr.UGe(a, b)
	case isa.BLT:
		return expr.SLt(a, b)
	default: // BGE
		return expr.SGe(a, b)
	}
}

func (m *Machine) branch(s *State, in isa.Instr) ([]*State, error) {
	next := s.PC + isa.InstrSize
	target := in.Imm

	// Concrete operands decide the branch on their words; the interned
	// Bool is exactly the fold branchCond would build.
	var cond *expr.Expr
	if s.sym[in.Rs1] == nil && s.sym[in.Rs2] == nil {
		cond = expr.Bool(branchTaken(in.Op, s.regs[in.Rs1], s.regs[in.Rs2]))
	} else {
		cond = branchCond(s, in)
	}
	if cond.IsConst() {
		taken := cond.ConstVal() != 0
		s.Trace.Append(Event{Kind: EvBranch, Seq: s.ICount, PC: s.PC, Cond: cond, Taken: taken})
		if taken {
			s.PC = target
		} else {
			s.PC = next
		}
		m.MarkBlockStart(s)
		return m.only(s), nil
	}

	// Symbolic condition: explore all feasible alternatives (§2).
	notCond := expr.LogicalNot(cond)
	model, ok := s.pathModel()
	taken, notTaken := m.Solver.Branch(s.Constraints, model, ok, cond, notCond)
	okTaken, okNot := taken.Res == solver.Sat, notTaken.Res == solver.Sat

	switch {
	case okTaken && okNot:
		// One fork: s carries on as the taken child under the first new
		// ID, restarting its block counts as a forked child does, and the
		// not-taken side is the one copy.
		m.Forks++
		pc, tkID := s.PC, m.newID()
		nt := s.Fork(m.newID())
		s.ID, s.Parent = tkID, s.ID
		s.Depth++
		s.blocks.release()
		s.AddConstraint(cond)
		s.setModel(taken.Model)
		s.PC = target
		s.Trace.Append(Event{Kind: EvBranch, Seq: s.ICount, PC: pc, Cond: cond, Taken: true, Forked: true})
		m.MarkBlockStart(s)
		nt.AddConstraint(notCond)
		nt.setModel(notTaken.Model)
		nt.PC = next
		nt.Trace.Append(Event{Kind: EvBranch, Seq: nt.ICount, PC: pc, Cond: cond, Taken: false, Forked: true})
		m.MarkBlockStart(nt)
		out := []*State{s, nt}
		if m.OnFork != nil {
			m.OnFork(s, out, cond)
		}
		return out, nil
	case okTaken:
		// The one feasible side adds no constraint, so its model is one of
		// the unchanged path condition.
		s.setModel(taken.Model)
		s.Trace.Append(Event{Kind: EvBranch, Seq: s.ICount, PC: s.PC, Cond: cond, Taken: true})
		s.PC = target
		m.MarkBlockStart(s)
		return m.only(s), nil
	case okNot:
		s.setModel(notTaken.Model)
		s.Trace.Append(Event{Kind: EvBranch, Seq: s.ICount, PC: s.PC, Cond: cond, Taken: false})
		s.PC = next
		m.MarkBlockStart(s)
		return m.only(s), nil
	default:
		// Both sides unsolvable: the path constraints are themselves
		// undecidable for our solver. Drop the path (coverage loss only).
		s.Status = StatusInfeasible
		return nil, nil
	}
}

func (m *Machine) jumpIndirect(s *State, target uint8, isCall bool) ([]*State, error) {
	pc, err := m.regValue(s, target, "jump target")
	if err != nil {
		s.Status = StatusBug
		return nil, err
	}
	if slot, ok := isa.InTrapWindow(pc); ok && isCall {
		return m.apiCall(s, slot)
	}
	s.PC = pc
	m.MarkBlockStart(s)
	return m.only(s), nil
}

func (m *Machine) apiCall(s *State, slot int) ([]*State, error) {
	if slot >= len(m.Img.Imports) {
		s.Status = StatusBug
		return nil, Faultf("memory", s.PC, "call to unresolved import slot %d", slot)
	}
	name := m.Img.Imports[slot]
	s.Trace.Append(Event{Kind: EvAPICall, Seq: s.ICount, PC: s.PC, Name: name})
	if m.APICall == nil {
		s.Status = StatusBug
		return nil, Faultf("engine", s.PC, "no kernel attached for %s", name)
	}
	extra, err := m.APICall(s, slot)
	if err != nil {
		s.Status = StatusBug
		return nil, err
	}
	ret := func(st *State) error {
		lr, ok := st.RegConcrete(isa.LR)
		if !ok {
			return Faultf("engine", st.PC, "symbolic return address after %s", name)
		}
		st.PC = lr
		st.Trace.Append(Event{Kind: EvAPIReturn, Seq: st.ICount, PC: lr, Name: name})
		m.MarkBlockStart(st)
		return nil
	}
	out := m.slot[:0:1] // the common case: no alternatives, s returns
	if len(extra) > 0 {
		out = make([]*State, 0, 1+len(extra))
	}
	if s.Status == StatusRunning {
		if err := ret(s); err != nil {
			s.Status = StatusBug
			return nil, err
		}
		out = append(out, s)
	}
	for _, e := range extra {
		if e.Status != StatusRunning {
			continue
		}
		if err := ret(e); err != nil {
			e.Status = StatusBug
			continue
		}
		out = append(out, e)
	}
	return out, nil
}
