// Package expr implements the symbolic expression layer used by DDT's
// selective symbolic execution engine.
//
// All expressions denote 32-bit unsigned machine words. Narrower values
// (bytes read from symbolic device registers, packet bytes) are represented
// as 32-bit expressions whose upper bits are zero; comparisons produce 0 or
// 1. This flat model avoids a bitwidth system while remaining faithful to
// the d32 ISA, which is word-oriented.
//
// Expressions are immutable. Smart constructors canonicalize and
// constant-fold aggressively so that purely concrete computation stays
// concrete (a requirement for selective symbolic execution: the kernel side
// of the boundary must never observe a needlessly symbolic value).
package expr

import (
	"fmt"
	"math/bits"
	"strings"
)

// Op identifies an expression node kind.
type Op uint8

// Expression node kinds.
const (
	OpConst Op = iota // C
	OpSym             // symbol Sym
	OpAdd             // X + Y
	OpSub             // X - Y
	OpMul             // X * Y
	OpUDiv            // X / Y (unsigned; Y==0 yields all-ones, matching d32)
	OpURem            // X % Y (unsigned; Y==0 yields X, matching d32)
	OpAnd             // X & Y
	OpOr              // X | Y
	OpXor             // X ^ Y
	OpShl             // X << (Y & 31)
	OpLshr            // X >> (Y & 31) logical
	OpAshr            // X >> (Y & 31) arithmetic
	OpEq              // X == Y ? 1 : 0
	OpULt             // X < Y unsigned ? 1 : 0
	OpSLt             // X < Y signed ? 1 : 0
	OpIte             // X != 0 ? Y : Z
	OpNot             // ^X (bitwise complement)
)

var opNames = [...]string{
	OpConst: "const", OpSym: "sym", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpUDiv: "udiv", OpURem: "urem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLshr: "lshr", OpAshr: "ashr", OpEq: "eq", OpULt: "ult",
	OpSLt: "slt", OpIte: "ite", OpNot: "not",
}

func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// SymID names a symbolic variable within a SymbolTable.
type SymID int32

// Expr is an immutable symbolic expression over 32-bit words.
//
// Concrete values are Expr nodes with Op==OpConst; code that only needs the
// concrete fast path should check IsConst first.
type Expr struct {
	Op   Op
	X    *Expr
	Y    *Expr
	Z    *Expr
	C    uint32 // valid when Op==OpConst
	Sym  SymID  // valid when Op==OpSym
	hash uint64
	size int32 // node count, used to cap simplifier recursion and sort operands
}

// Small constant cache: the VM allocates constants constantly.
var smallConsts [1024]*Expr

// Interned common word values beyond the small range: contiguous low-bit
// masks (0xFFFF, 0xFFFFFFFF, 0x7FFFFFFF, ...) and powers of two (page
// sizes, alignment, single flag bits). These dominate the constants the
// step loop's ALU folding and zero/sign extension produce, so interning
// them keeps purely concrete stepping allocation-free.
var (
	maskConsts [33]*Expr // maskConsts[k] = (1<<k)-1, for values >= 1024
	pow2Consts [32]*Expr // pow2Consts[k] = 1<<k, for values >= 1024
)

func internConst(c uint32) *Expr {
	return &Expr{Op: OpConst, C: c, hash: hashNode(OpConst, uint64(c), 0, 0), size: 1}
}

func init() {
	for i := range smallConsts {
		smallConsts[i] = internConst(uint32(i))
	}
	for k := 10; k < 32; k++ {
		pow2Consts[k] = internConst(1 << k)
	}
	for k := 11; k <= 32; k++ {
		maskConsts[k] = internConst(uint32((uint64(1) << k) - 1))
	}
}

// Const returns a constant expression with value c.
func Const(c uint32) *Expr {
	if c < uint32(len(smallConsts)) {
		return smallConsts[c]
	}
	if c&(c+1) == 0 { // contiguous low mask: 2^k - 1
		return maskConsts[bits.OnesCount32(c)]
	}
	if c&(c-1) == 0 { // power of two
		return pow2Consts[bits.TrailingZeros32(c)]
	}
	// Out-of-range values go through the bounded cons table so repeated
	// materialization of the same word (device register values, packet
	// fields) yields one shared node. The slot index is the node's own
	// structural hash: cheaper index functions were measured and lost —
	// their worse slot distribution cost more in evictions (a miss pays an
	// allocation plus the hash anyway, and breaks downstream pointer
	// sharing) than they saved per hit.
	slot := &constTable[hashNode(OpConst, uint64(c), 0, 0)&(constSize-1)]
	if e := slot.Load(); e != nil && e.C == c {
		return e
	}
	e := internConst(c)
	slot.Store(e)
	return e
}

// Bool returns Const(1) if b, else Const(0).
func Bool(b bool) *Expr {
	if b {
		return smallConsts[1]
	}
	return smallConsts[0]
}

// Sym returns a reference to symbolic variable id. References are interned
// through the cons table: every read of the same symbolic device register
// returns the same node.
func Sym(id SymID) *Expr {
	slot := &symTable[uint64(uint32(id))&(symSize-1)]
	if e := slot.Load(); e != nil && e.Sym == id {
		return e
	}
	e := &Expr{Op: OpSym, Sym: id, hash: hashNode(OpSym, uint64(id), 0, 0), size: 1}
	slot.Store(e)
	return e
}

// IsConst reports whether e is a concrete constant.
func (e *Expr) IsConst() bool { return e.Op == OpConst }

// ConstVal returns the constant value; it panics if e is not constant.
func (e *Expr) ConstVal() uint32 {
	if e.Op != OpConst {
		panic("expr: ConstVal on non-constant " + e.String())
	}
	return e.C
}

// IsFalse reports whether e is the constant 0.
func (e *Expr) IsFalse() bool { return e.Op == OpConst && e.C == 0 }

// Size returns the number of nodes in e.
func (e *Expr) Size() int { return int(e.size) }

// Hash returns a structural hash of e.
func (e *Expr) Hash() uint64 { return e.hash }

func hashNode(op Op, a, b, c uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(op))
	mix(a)
	mix(b)
	mix(c)
	return h
}

func newNode(op Op, x, y, z *Expr) *Expr {
	var hx, hy, hz uint64
	var sz int32 = 1
	if x != nil {
		hx = x.hash
		sz += x.size
	}
	if y != nil {
		hy = y.hash
		sz += y.size
	}
	if z != nil {
		hz = z.hash
		sz += z.size
	}
	// Hash-cons: children were consed before their parent, so comparing
	// child pointers is structural identity for the whole subtree whenever
	// the slot still holds a match. The slot index is the node's structural
	// hash itself — cheap mixes of the child hashes were tried and measured
	// slower overall: worse distribution raises the miss rate, and a miss
	// pays the full hash plus an allocation and evicts a shared node.
	h := hashNode(op, hx, hy, hz)
	slot := &consTable[h&(consSize-1)]
	if e := slot.Load(); e != nil && e.Op == op && e.X == x && e.Y == y && e.Z == z {
		return e
	}
	e := &Expr{Op: op, X: x, Y: y, Z: z, hash: h, size: sz}
	slot.Store(e)
	return e
}

// Equal reports structural equality of a and b.
func Equal(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.hash != b.hash || a.Op != b.Op || a.C != b.C || a.Sym != b.Sym || a.size != b.size {
		return false
	}
	return Equal(a.X, b.X) && Equal(a.Y, b.Y) && Equal(a.Z, b.Z)
}

// commutative ops get canonical operand order (constants first, then by hash)
// so that structurally equal expressions built in different orders compare equal.
func canonOrder(x, y *Expr) (*Expr, *Expr) {
	if y.Op == OpConst && x.Op != OpConst {
		return y, x
	}
	if x.Op != OpConst && y.Op != OpConst && x.hash > y.hash {
		return y, x
	}
	return x, y
}

// Add returns x + y.
func Add(x, y *Expr) *Expr {
	if x.IsConst() && y.IsConst() {
		return Const(x.C + y.C)
	}
	x, y = canonOrder(x, y)
	if x.IsConst() && x.C == 0 {
		return y
	}
	// (c + (c2 + e)) -> (c+c2) + e
	if x.IsConst() && y.Op == OpAdd && y.X.IsConst() {
		return Add(Const(x.C+y.X.C), y.Y)
	}
	// e + e -> 2*e? keep simple: skip.
	return newNode(OpAdd, x, y, nil)
}

// Sub returns x - y.
func Sub(x, y *Expr) *Expr {
	if x.IsConst() && y.IsConst() {
		return Const(x.C - y.C)
	}
	if y.IsConst() {
		return Add(Const(-y.C), x)
	}
	if Equal(x, y) {
		return Const(0)
	}
	return newNode(OpSub, x, y, nil)
}

// Mul returns x * y.
func Mul(x, y *Expr) *Expr {
	if x.IsConst() && y.IsConst() {
		return Const(x.C * y.C)
	}
	x, y = canonOrder(x, y)
	if x.IsConst() {
		switch x.C {
		case 0:
			return Const(0)
		case 1:
			return y
		}
	}
	return newNode(OpMul, x, y, nil)
}

// UDiv returns x / y (unsigned). Division by zero yields 0xFFFFFFFF, the
// d32 hardware convention.
func UDiv(x, y *Expr) *Expr {
	if x.IsConst() && y.IsConst() {
		if y.C == 0 {
			return Const(0xFFFFFFFF)
		}
		return Const(x.C / y.C)
	}
	if y.IsConst() && y.C == 1 {
		return x
	}
	return newNode(OpUDiv, x, y, nil)
}

// URem returns x % y (unsigned). Modulo by zero yields x, the d32 hardware
// convention.
func URem(x, y *Expr) *Expr {
	if x.IsConst() && y.IsConst() {
		if y.C == 0 {
			return x
		}
		return Const(x.C % y.C)
	}
	if y.IsConst() && y.C == 1 {
		return Const(0)
	}
	return newNode(OpURem, x, y, nil)
}

// And returns x & y.
func And(x, y *Expr) *Expr {
	if x.IsConst() && y.IsConst() {
		return Const(x.C & y.C)
	}
	x, y = canonOrder(x, y)
	if x.IsConst() {
		switch x.C {
		case 0:
			return Const(0)
		case 0xFFFFFFFF:
			return y
		}
	}
	if Equal(x, y) {
		return x
	}
	// (c1 & (c2 & e)) -> (c1&c2) & e
	if x.IsConst() && y.Op == OpAnd && y.X.IsConst() {
		return And(Const(x.C&y.X.C), y.Y)
	}
	return newNode(OpAnd, x, y, nil)
}

// Or returns x | y.
func Or(x, y *Expr) *Expr {
	if x.IsConst() && y.IsConst() {
		return Const(x.C | y.C)
	}
	x, y = canonOrder(x, y)
	if x.IsConst() {
		switch x.C {
		case 0:
			return y
		case 0xFFFFFFFF:
			return Const(0xFFFFFFFF)
		}
	}
	if Equal(x, y) {
		return x
	}
	return newNode(OpOr, x, y, nil)
}

// Xor returns x ^ y.
func Xor(x, y *Expr) *Expr {
	if x.IsConst() && y.IsConst() {
		return Const(x.C ^ y.C)
	}
	x, y = canonOrder(x, y)
	if x.IsConst() && x.C == 0 {
		return y
	}
	if Equal(x, y) {
		return Const(0)
	}
	return newNode(OpXor, x, y, nil)
}

// Not returns ^x (bitwise complement).
func Not(x *Expr) *Expr {
	if x.IsConst() {
		return Const(^x.C)
	}
	if x.Op == OpNot {
		return x.X
	}
	return newNode(OpNot, x, nil, nil)
}

// Shl returns x << (y & 31).
func Shl(x, y *Expr) *Expr {
	if x.IsConst() && y.IsConst() {
		return Const(x.C << (y.C & 31))
	}
	if y.IsConst() && y.C&31 == 0 {
		return x
	}
	if x.IsConst() && x.C == 0 {
		return Const(0)
	}
	return newNode(OpShl, x, y, nil)
}

// Lshr returns x >> (y & 31), logical.
func Lshr(x, y *Expr) *Expr {
	if x.IsConst() && y.IsConst() {
		return Const(x.C >> (y.C & 31))
	}
	if y.IsConst() && y.C&31 == 0 {
		return x
	}
	if x.IsConst() && x.C == 0 {
		return Const(0)
	}
	return newNode(OpLshr, x, y, nil)
}

// Ashr returns x >> (y & 31), arithmetic.
func Ashr(x, y *Expr) *Expr {
	if x.IsConst() && y.IsConst() {
		return Const(uint32(int32(x.C) >> (y.C & 31)))
	}
	if y.IsConst() && y.C&31 == 0 {
		return x
	}
	return newNode(OpAshr, x, y, nil)
}

// Eq returns x == y ? 1 : 0.
func Eq(x, y *Expr) *Expr {
	if x.IsConst() && y.IsConst() {
		return Bool(x.C == y.C)
	}
	x, y = canonOrder(x, y)
	if Equal(x, y) {
		return Const(1)
	}
	// (e == c) where e is (x + c2): fold to x == c-c2
	if x.IsConst() && y.Op == OpAdd && y.X.IsConst() {
		return Eq(y.Y, Const(x.C-y.X.C))
	}
	// eq(c, eq(a,b)): boolean-valued inner
	if x.IsConst() && isBoolValued(y) {
		switch x.C {
		case 0:
			return LogicalNot(y)
		case 1:
			return y
		default:
			return Const(0) // a boolean can never equal 2,3,...
		}
	}
	return newNode(OpEq, x, y, nil)
}

// Ne returns x != y ? 1 : 0.
func Ne(x, y *Expr) *Expr { return LogicalNot(Eq(x, y)) }

// ULt returns x < y (unsigned) ? 1 : 0.
func ULt(x, y *Expr) *Expr {
	if x.IsConst() && y.IsConst() {
		return Bool(x.C < y.C)
	}
	if Equal(x, y) {
		return Const(0)
	}
	if y.IsConst() && y.C == 0 {
		return Const(0) // nothing is unsigned-less-than 0
	}
	if x.IsConst() && x.C == 0xFFFFFFFF {
		return Const(0)
	}
	return newNode(OpULt, x, y, nil)
}

// ULe returns x <= y (unsigned) ? 1 : 0.
func ULe(x, y *Expr) *Expr { return LogicalNot(ULt(y, x)) }

// UGt returns x > y (unsigned) ? 1 : 0.
func UGt(x, y *Expr) *Expr { return ULt(y, x) }

// UGe returns x >= y (unsigned) ? 1 : 0.
func UGe(x, y *Expr) *Expr { return LogicalNot(ULt(x, y)) }

// SLt returns x < y (signed) ? 1 : 0.
func SLt(x, y *Expr) *Expr {
	if x.IsConst() && y.IsConst() {
		return Bool(int32(x.C) < int32(y.C))
	}
	if Equal(x, y) {
		return Const(0)
	}
	return newNode(OpSLt, x, y, nil)
}

// SGe returns x >= y (signed) ? 1 : 0.
func SGe(x, y *Expr) *Expr { return LogicalNot(SLt(x, y)) }

// Ite returns cond != 0 ? then : els.
func Ite(cond, then, els *Expr) *Expr {
	if cond.IsConst() {
		if cond.C != 0 {
			return then
		}
		return els
	}
	if Equal(then, els) {
		return then
	}
	// ite(c, 1, 0) == boolify(c); if c is already boolean, it IS c.
	if then.IsConst() && els.IsConst() && then.C == 1 && els.C == 0 && isBoolValued(cond) {
		return cond
	}
	return newNode(OpIte, cond, then, els)
}

// LogicalNot returns x == 0 ? 1 : 0.
func LogicalNot(x *Expr) *Expr {
	if x.IsConst() {
		return Bool(x.C == 0)
	}
	// not(not(b)) for boolean-valued b
	if x.Op == OpEq && x.X.IsConst() && x.X.C == 0 && isBoolValued(x.Y) {
		return x.Y
	}
	return newNode(OpEq, Const(0), x, nil)
}

// isBoolValued reports whether e always evaluates to 0 or 1.
func isBoolValued(e *Expr) bool {
	switch e.Op {
	case OpEq, OpULt, OpSLt:
		return true
	case OpConst:
		return e.C <= 1
	case OpIte:
		return isBoolValued(e.Y) && isBoolValued(e.Z)
	case OpAnd, OpOr:
		return isBoolValued(e.X) && isBoolValued(e.Y)
	}
	return false
}

// ExtractByte returns byte i (0 = least significant) of x as a 32-bit value.
func ExtractByte(x *Expr, i uint) *Expr {
	return And(Lshr(x, Const(uint32(i*8))), Const(0xFF))
}

// ConcatBytes assembles a 32-bit word from four byte-valued expressions,
// b0 being the least significant. When the bytes are exactly the four
// ExtractBytes of one word x (a stored word read back), the result is x
// itself rather than the shift-and-or chain that denotes it.
func ConcatBytes(b0, b1, b2, b3 *Expr) *Expr {
	if x := bytesOf(b0, b1, b2, b3); x != nil {
		return x
	}
	w := Or(b0, Shl(b1, Const(8)))
	w = Or(w, Shl(b2, Const(16)))
	return Or(w, Shl(b3, Const(24)))
}

// ConcatBytes2 assembles a 16-bit value from two byte-valued expressions,
// b0 being the least significant. When the bytes are the two low
// ExtractBytes of one word x, the result is x's low half, And(0xFFFF, x).
func ConcatBytes2(b0, b1 *Expr) *Expr {
	if x := bytesOf(b0, b1); x != nil {
		return And(Const(0xFFFF), x)
	}
	return Or(b0, Shl(b1, Const(8)))
}

// bytesOf returns the word x when bs[k] is structurally ExtractByte(x, k)
// for every k, with bs[0] = And(0xFF, x) naming x; otherwise nil. The
// match is exact, so folding the re-assembly to x never changes a value.
func bytesOf(bs ...*Expr) *Expr {
	b0 := bs[0]
	if b0.Op != OpAnd || b0.X.Op != OpConst || b0.X.C != 0xFF {
		return nil
	}
	x := b0.Y
	for k := 1; k < len(bs); k++ {
		if !Equal(bs[k], ExtractByte(x, uint(k))) {
			return nil
		}
	}
	return x
}

// ZeroExt8 masks x to its low 8 bits.
func ZeroExt8(x *Expr) *Expr { return And(x, Const(0xFF)) }

// ZeroExt16 masks x to its low 16 bits.
func ZeroExt16(x *Expr) *Expr { return And(x, Const(0xFFFF)) }

// SignExt8 sign-extends the low 8 bits of x to 32 bits.
func SignExt8(x *Expr) *Expr {
	if x.IsConst() {
		return Const(uint32(int32(int8(x.C))))
	}
	return Ashr(Shl(x, Const(24)), Const(24))
}

// SignExt16 sign-extends the low 16 bits of x to 32 bits.
func SignExt16(x *Expr) *Expr {
	if x.IsConst() {
		return Const(uint32(int32(int16(x.C))))
	}
	return Ashr(Shl(x, Const(16)), Const(16))
}

// String renders e as an s-expression, for diagnostics and traces.
func (e *Expr) String() string {
	var b strings.Builder
	e.format(&b, 0)
	return b.String()
}

func (e *Expr) format(b *strings.Builder, depth int) {
	if e == nil {
		b.WriteString("<nil>")
		return
	}
	if depth > 24 {
		b.WriteString("...")
		return
	}
	switch e.Op {
	case OpConst:
		fmt.Fprintf(b, "%#x", e.C)
	case OpSym:
		fmt.Fprintf(b, "v%d", e.Sym)
	default:
		b.WriteByte('(')
		b.WriteString(e.Op.String())
		for _, sub := range []*Expr{e.X, e.Y, e.Z} {
			if sub == nil {
				break
			}
			b.WriteByte(' ')
			sub.format(b, depth+1)
		}
		b.WriteByte(')')
	}
}
