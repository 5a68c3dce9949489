package vm

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/isa"
)

// aluFoldOracle names, for every two-operand ALU opcode, the expression
// builder whose constant fold defines its result. Register and immediate
// forms share a builder.
var aluFoldOracle = map[isa.Opcode]func(x, y *expr.Expr) *expr.Expr{
	isa.ADD: expr.Add, isa.SUB: expr.Sub, isa.MUL: expr.Mul,
	isa.DIVU: expr.UDiv, isa.REMU: expr.URem,
	isa.AND: expr.And, isa.OR: expr.Or, isa.XOR: expr.Xor,
	isa.SHL: expr.Shl, isa.SHR: expr.Lshr, isa.SAR: expr.Ashr,
	isa.ADDI: expr.Add, isa.ANDI: expr.And, isa.ORI: expr.Or, isa.XORI: expr.Xor,
	isa.SHLI: expr.Shl, isa.SHRI: expr.Lshr, isa.SARI: expr.Ashr, isa.MULI: expr.Mul,
}

// branchFoldOracle does the same for every conditional branch's condition.
var branchFoldOracle = map[isa.Opcode]func(x, y *expr.Expr) *expr.Expr{
	isa.BEQ: expr.Eq, isa.BNE: expr.Ne,
	isa.BLTU: expr.ULt, isa.BGEU: expr.UGe,
	isa.BLT: expr.SLt, isa.BGE: expr.SGe,
}

// aluFuzzEdges are the shift and overflow edges every fuzz input is also
// paired with, on either side.
var aluFuzzEdges = [...]uint32{0, 1, 2, 7, 8, 31, 32, 33, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFE, 0xFFFFFFFF}

// checkAluFold checks every ALU and branch opcode on the operand pair
// (x, y): the concrete ALU (aluFn, branchTaken), the general exec's
// concrete path and the symbolic-side builders (aluExpr, branchCond) must
// all agree with the constant fold of the oracle's expression.
func checkAluFold(t *testing.T, x, y uint32) {
	t.Helper()
	m := &Machine{}
	for op, fold := range aluFoldOracle {
		want := fold(expr.Const(x), expr.Const(y))
		if !want.IsConst() {
			t.Fatalf("%s fold of %#x, %#x is not constant: %v", op.Name(), x, y, want)
		}
		if got := aluFn(op)(x, y); got != want.ConstVal() {
			t.Fatalf("aluFn %s(%#x, %#x) = %#x, fold %#x", op.Name(), x, y, got, want.ConstVal())
		}
		if got := aluExpr(op)(expr.Const(x), expr.Const(y)); !got.IsConst() || got.ConstVal() != want.ConstVal() {
			t.Fatalf("aluExpr %s(%#x, %#x) = %v, fold %#x", op.Name(), x, y, got, want.ConstVal())
		}
		s := NewState(1)
		s.SetRegConcrete(isa.R1, x)
		s.SetRegConcrete(isa.R2, y)
		in := isa.Instr{Op: op, Rd: isa.R3, Rs1: isa.R1, Rs2: isa.R2, Imm: y}
		if _, err := m.exec(s, in); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.RegConcrete(isa.R3); !ok || got != want.ConstVal() {
			t.Fatalf("exec %s(%#x, %#x) = %#x (concrete %v), fold %#x", op.Name(), x, y, got, ok, want.ConstVal())
		}
	}
	for op, fold := range branchFoldOracle {
		want := fold(expr.Const(x), expr.Const(y))
		if !want.IsConst() {
			t.Fatalf("%s fold of %#x, %#x is not constant: %v", op.Name(), x, y, want)
		}
		taken := want.ConstVal() != 0
		if got := branchTaken(op, x, y); got != taken {
			t.Fatalf("branchTaken %s(%#x, %#x) = %v, fold %v", op.Name(), x, y, got, taken)
		}
		s := NewState(1)
		s.SetRegConcrete(isa.R1, x)
		s.SetRegConcrete(isa.R2, y)
		in := isa.Instr{Op: op, Rs1: isa.R1, Rs2: isa.R2, Imm: 0x100100}
		if cond := branchCond(s, in); !cond.IsConst() || cond.ConstVal() != want.ConstVal() {
			t.Fatalf("branchCond %s(%#x, %#x) = %v, fold %v", op.Name(), x, y, cond, want)
		}
		s.PC = 0x100000
		if _, err := m.exec(s, in); err != nil {
			t.Fatal(err)
		}
		wantPC := uint32(0x100000 + isa.InstrSize)
		if taken {
			wantPC = in.Imm
		}
		if s.PC != wantPC {
			t.Fatalf("exec %s(%#x, %#x) went to %#x, fold says %#x", op.Name(), x, y, s.PC, wantPC)
		}
	}
}

// FuzzAluMatchesExprFold is the oracle for the concrete ALU. Concrete
// operands never reach the expression folds, so on random words, and on
// each word paired with the shift and overflow edges, every register and
// immediate ALU opcode and every branch must compute what the fold of
// expr.<Op>(Const(x), Const(y)) computes.
func FuzzAluMatchesExprFold(f *testing.F) {
	f.Add(uint32(0), uint32(0))
	f.Add(uint32(0x80000000), uint32(31))
	f.Add(uint32(0xFFFFFFFF), uint32(32))
	f.Add(uint32(0xDEADBEEF), uint32(0x7FFFFFFF))
	f.Fuzz(func(t *testing.T, x, y uint32) {
		checkAluFold(t, x, y)
		for _, e := range aluFuzzEdges {
			checkAluFold(t, x, e)
			checkAluFold(t, e, y)
		}
	})
}
