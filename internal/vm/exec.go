package vm

import (
	"repro/internal/expr"
	"repro/internal/isa"
)

// exec executes the decoded instruction in on s. The PC still points at in;
// exec advances it.
func (c *ExecContext) exec(s *State, in isa.Instr) ([]*State, error) {
	next := s.PC + isa.InstrSize

	switch in.Op {
	case isa.NOP:
		s.PC = next

	case isa.MOVI:
		s.SetReg(in.Rd, expr.Const(in.Imm))
		s.PC = next
	case isa.MOV:
		s.SetReg(in.Rd, s.Reg(in.Rs1))
		s.PC = next

	case isa.ADD:
		s.SetReg(in.Rd, expr.Add(s.Reg(in.Rs1), s.Reg(in.Rs2)))
		s.PC = next
	case isa.SUB:
		s.SetReg(in.Rd, expr.Sub(s.Reg(in.Rs1), s.Reg(in.Rs2)))
		s.PC = next
	case isa.MUL:
		s.SetReg(in.Rd, expr.Mul(s.Reg(in.Rs1), s.Reg(in.Rs2)))
		s.PC = next
	case isa.DIVU:
		s.SetReg(in.Rd, expr.UDiv(s.Reg(in.Rs1), s.Reg(in.Rs2)))
		s.PC = next
	case isa.REMU:
		s.SetReg(in.Rd, expr.URem(s.Reg(in.Rs1), s.Reg(in.Rs2)))
		s.PC = next
	case isa.AND:
		s.SetReg(in.Rd, expr.And(s.Reg(in.Rs1), s.Reg(in.Rs2)))
		s.PC = next
	case isa.OR:
		s.SetReg(in.Rd, expr.Or(s.Reg(in.Rs1), s.Reg(in.Rs2)))
		s.PC = next
	case isa.XOR:
		s.SetReg(in.Rd, expr.Xor(s.Reg(in.Rs1), s.Reg(in.Rs2)))
		s.PC = next
	case isa.SHL:
		s.SetReg(in.Rd, expr.Shl(s.Reg(in.Rs1), s.Reg(in.Rs2)))
		s.PC = next
	case isa.SHR:
		s.SetReg(in.Rd, expr.Lshr(s.Reg(in.Rs1), s.Reg(in.Rs2)))
		s.PC = next
	case isa.SAR:
		s.SetReg(in.Rd, expr.Ashr(s.Reg(in.Rs1), s.Reg(in.Rs2)))
		s.PC = next

	case isa.ADDI:
		s.SetReg(in.Rd, expr.Add(s.Reg(in.Rs1), expr.Const(in.Imm)))
		s.PC = next
	case isa.ANDI:
		s.SetReg(in.Rd, expr.And(s.Reg(in.Rs1), expr.Const(in.Imm)))
		s.PC = next
	case isa.ORI:
		s.SetReg(in.Rd, expr.Or(s.Reg(in.Rs1), expr.Const(in.Imm)))
		s.PC = next
	case isa.XORI:
		s.SetReg(in.Rd, expr.Xor(s.Reg(in.Rs1), expr.Const(in.Imm)))
		s.PC = next
	case isa.SHLI:
		s.SetReg(in.Rd, expr.Shl(s.Reg(in.Rs1), expr.Const(in.Imm)))
		s.PC = next
	case isa.SHRI:
		s.SetReg(in.Rd, expr.Lshr(s.Reg(in.Rs1), expr.Const(in.Imm)))
		s.PC = next
	case isa.SARI:
		s.SetReg(in.Rd, expr.Ashr(s.Reg(in.Rs1), expr.Const(in.Imm)))
		s.PC = next
	case isa.MULI:
		s.SetReg(in.Rd, expr.Mul(s.Reg(in.Rs1), expr.Const(in.Imm)))
		s.PC = next

	case isa.LDW, isa.LDH, isa.LDB:
		size := loadStoreSize(in.Op)
		val, err := c.load(s, in.Rs1, in.Imm, size)
		if err != nil {
			s.Status = StatusBug
			return nil, err
		}
		s.SetReg(in.Rd, val)
		s.PC = next

	case isa.STW, isa.STH, isa.STB:
		size := loadStoreSize(in.Op)
		if err := c.store(s, in.Rs1, in.Imm, size, s.Reg(in.Rd)); err != nil {
			s.Status = StatusBug
			return nil, err
		}
		s.PC = next

	case isa.PUSH:
		sp := expr.Sub(s.Reg(isa.SP), expr.Const(4))
		s.SetReg(isa.SP, sp)
		if err := c.store(s, isa.SP, 0, 4, s.Reg(in.Rd)); err != nil {
			s.Status = StatusBug
			return nil, err
		}
		s.PC = next
	case isa.POP:
		val, err := c.load(s, isa.SP, 0, 4)
		if err != nil {
			s.Status = StatusBug
			return nil, err
		}
		s.SetReg(in.Rd, val)
		s.SetReg(isa.SP, expr.Add(s.Reg(isa.SP), expr.Const(4)))
		s.PC = next

	case isa.BEQ, isa.BNE, isa.BLTU, isa.BGEU, isa.BLT, isa.BGE:
		return c.branch(s, in)

	case isa.JMP:
		s.PC = in.Imm
		c.M.MarkBlockStart(s)
	case isa.JR:
		return c.jumpIndirect(s, s.Reg(in.Rs1), false)

	case isa.CALL:
		s.SetReg(isa.LR, expr.Const(next))
		if slot, ok := isa.InTrapWindow(in.Imm); ok {
			return c.apiCall(s, slot)
		}
		s.PC = in.Imm
		c.M.MarkBlockStart(s)
	case isa.CALLR:
		s.SetReg(isa.LR, expr.Const(next))
		return c.jumpIndirect(s, s.Reg(in.Rs1), true)
	case isa.RET:
		return c.jumpIndirect(s, s.Reg(isa.LR), false)

	case isa.IN:
		port, err := c.Concretize(s, s.Reg(in.Rs1), "port")
		if err != nil {
			s.Status = StatusBug
			return nil, err
		}
		var v *expr.Expr
		if c.M.ReadPort != nil {
			v = c.M.ReadPort(s, port)
			c.M.SymReads.Add(1)
		} else {
			v = expr.Const(0)
		}
		s.SetReg(in.Rd, v)
		s.PC = next
	case isa.OUT:
		port, err := c.Concretize(s, s.Reg(in.Rs1), "port")
		if err != nil {
			s.Status = StatusBug
			return nil, err
		}
		if c.M.WritePort != nil {
			c.M.WritePort(s, port, s.Reg(in.Rd))
		}
		s.PC = next

	case isa.HLT:
		s.Status = StatusHalted
		return nil, nil

	default:
		s.Status = StatusBug
		return nil, Faultf("memory", s.PC, "unimplemented opcode %s", in.Op.Name())
	}
	return c.only(s), nil
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

func (c *ExecContext) effectiveAddr(s *State, base uint8, imm uint32, size uint32, write bool) (uint32, error) {
	addr := expr.Add(s.Reg(base), expr.Const(imm))
	if addr.IsConst() {
		return addr.ConstVal(), nil
	}
	if c.M.PinAddress != nil {
		if val, ok := c.M.PinAddress(s, addr, size, write); ok {
			s.AddConstraint(expr.Eq(addr, expr.Const(val)))
			s.Trace.Append(Event{
				Kind: EvConcretize, Seq: s.ICount, PC: s.PC,
				Val: expr.Const(val), Name: "address",
			})
			return val, nil
		}
	}
	return c.Concretize(s, addr, "address")
}

func (c *ExecContext) load(s *State, base uint8, imm, size uint32) (*expr.Expr, error) {
	addr, err := c.effectiveAddr(s, base, imm, size, false)
	if err != nil {
		return nil, err
	}
	if addr >= isa.MMIOBase && addr < isa.MMIOLimit {
		c.M.SymReads.Add(1)
		if c.M.ReadDevice != nil {
			return c.M.ReadDevice(s, addr, size), nil
		}
		return expr.Const(0), nil
	}
	if c.M.OnMemAccess != nil {
		if err := c.M.OnMemAccess(s, s.PC, addr, size, false, nil); err != nil {
			return nil, err
		}
	}
	v := s.Mem.Read(addr, size)
	s.Trace.Append(Event{Kind: EvMem, Seq: s.ICount, PC: s.PC, Addr: addr, Size: uint8(size), Write: false, Val: v})
	return v, nil
}

func (c *ExecContext) store(s *State, base uint8, imm, size uint32, v *expr.Expr) error {
	addr, err := c.effectiveAddr(s, base, imm, size, true)
	if err != nil {
		return err
	}
	if addr >= isa.MMIOBase && addr < isa.MMIOLimit {
		if c.M.WriteDevice != nil {
			c.M.WriteDevice(s, addr, size, v)
		}
		return nil
	}
	if c.M.OnMemAccess != nil {
		if err := c.M.OnMemAccess(s, s.PC, addr, size, true, v); err != nil {
			return err
		}
	}
	s.Mem.Write(addr, size, v)
	s.Trace.Append(Event{Kind: EvMem, Seq: s.ICount, PC: s.PC, Addr: addr, Size: uint8(size), Write: true, Val: v})
	return nil
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

func (c *ExecContext) branch(s *State, in isa.Instr) ([]*State, error) {
	cond := branchCond(s, in)
	next := s.PC + isa.InstrSize
	target := in.Imm

	if cond.IsConst() {
		taken := cond.ConstVal() != 0
		s.Trace.Append(Event{Kind: EvBranch, Seq: s.ICount, PC: s.PC, Cond: cond, Taken: taken})
		if taken {
			s.PC = target
		} else {
			s.PC = next
		}
		c.M.MarkBlockStart(s)
		return c.only(s), nil
	}

	// Symbolic condition: explore all feasible alternatives (§2).
	notCond := expr.LogicalNot(cond)
	csTaken := append(s.Constraints[:len(s.Constraints):len(s.Constraints)], cond)
	csNot := append(s.Constraints[:len(s.Constraints):len(s.Constraints)], notCond)
	okTaken := c.Solver.Feasible(csTaken)
	okNot := c.Solver.Feasible(csNot)

	switch {
	case okTaken && okNot:
		c.pendForks++
		tk := s.Fork(c.M.newID())
		nt := s.Fork(c.M.newID())
		tk.AddConstraint(cond)
		tk.PC = target
		tk.Trace.Append(Event{Kind: EvBranch, Seq: tk.ICount, PC: s.PC, Cond: cond, Taken: true, Forked: true})
		c.M.MarkBlockStart(tk)
		nt.AddConstraint(notCond)
		nt.PC = next
		nt.Trace.Append(Event{Kind: EvBranch, Seq: nt.ICount, PC: s.PC, Cond: cond, Taken: false, Forked: true})
		c.M.MarkBlockStart(nt)
		s.Status = StatusKilled // retired; children carry on
		if c.M.OnFork != nil {
			c.M.OnFork(s, []*State{tk, nt}, cond)
		}
		return []*State{tk, nt}, nil
	case okTaken:
		s.Trace.Append(Event{Kind: EvBranch, Seq: s.ICount, PC: s.PC, Cond: cond, Taken: true})
		s.PC = target
		c.M.MarkBlockStart(s)
		return c.only(s), nil
	case okNot:
		s.Trace.Append(Event{Kind: EvBranch, Seq: s.ICount, PC: s.PC, Cond: cond, Taken: false})
		s.PC = next
		c.M.MarkBlockStart(s)
		return c.only(s), nil
	default:
		// Both sides unsolvable: the path constraints are themselves
		// undecidable for our solver. Drop the path (coverage loss only).
		s.Status = StatusInfeasible
		return nil, nil
	}
}

func (c *ExecContext) jumpIndirect(s *State, target *expr.Expr, isCall bool) ([]*State, error) {
	pc, err := c.Concretize(s, target, "jump target")
	if err != nil {
		s.Status = StatusBug
		return nil, err
	}
	if slot, ok := isa.InTrapWindow(pc); ok && isCall {
		return c.apiCall(s, slot)
	}
	s.PC = pc
	c.M.MarkBlockStart(s)
	return c.only(s), nil
}

func (c *ExecContext) apiCall(s *State, slot int) ([]*State, error) {
	c.M.APICalls.Add(1)
	if slot >= len(c.M.Img.Imports) {
		s.Status = StatusBug
		return nil, Faultf("memory", s.PC, "call to unresolved import slot %d", slot)
	}
	name := c.M.Img.Imports[slot]
	s.Trace.Append(Event{Kind: EvAPICall, Seq: s.ICount, PC: s.PC, Name: name})
	if c.M.APICall == nil {
		s.Status = StatusBug
		return nil, Faultf("engine", s.PC, "no kernel attached for %s", name)
	}
	extra, err := c.M.APICall(s, slot)
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
		c.M.MarkBlockStart(st)
		return nil
	}
	out := c.slot[:0:1] // the common case: no alternatives, s returns
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
