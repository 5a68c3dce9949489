package asm

import (
	"strings"
	"testing"

	"repro/internal/binimg"
	"repro/internal/isa"
)

const miniDriver = `
; minimal but complete driver image
.name testdrv
.device vendor=0x10EC device=0x8029 class=network bar=256 ports=32 irq=9 rev=1
.import NdisMRegisterMiniport
.import NdisAllocateMemoryWithTag
.entry DriverEntry

.text
DriverEntry:
    addi sp, sp, -8
    stw  [sp+0], lr
    movi r0, greeting
    call NdisMRegisterMiniport
    movi r12, 0
    beq  r0, r12, fail
    call helper
    jmp  done
fail:
    movi r0, 1
done:
    ldw  lr, [sp+0]
    addi sp, sp, 8
    ret

helper:
    movi r0, counters
    ldw  r1, [r0+0]
    addi r1, r1, 1
    stw  [r0+0], r1
    ret

.data
greeting: .asciz "hello"
caps:     .word 1, 2, 4, DriverEntry
counters: .space 16
`

func mustAsm(t *testing.T, src string) *binimg.Image {
	t.Helper()
	im, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return im
}

func TestAssembleMiniDriver(t *testing.T) {
	im := mustAsm(t, miniDriver)
	if im.Name != "testdrv" {
		t.Errorf("name = %q", im.Name)
	}
	if im.Entry != isa.ImageBase {
		t.Errorf("entry = %#x, want %#x", im.Entry, isa.ImageBase)
	}
	if len(im.Imports) != 2 || im.Imports[0] != "NdisMRegisterMiniport" {
		t.Errorf("imports = %v", im.Imports)
	}
	if im.Device.VendorID != 0x10EC || im.Device.DeviceID != 0x8029 {
		t.Errorf("device = %+v", im.Device)
	}
	if im.Device.Class != binimg.ClassNetwork {
		t.Errorf("class = %v", im.Device.Class)
	}
	if im.BSSSize != 16 {
		t.Errorf("bss = %d", im.BSSSize)
	}
	wantInstrs := 17
	if got := len(im.Text) / isa.InstrSize; got != wantInstrs {
		t.Errorf("instruction count = %d, want %d", got, wantInstrs)
	}
}

func TestImportCallResolvesToTrap(t *testing.T) {
	im := mustAsm(t, miniDriver)
	// Fourth instruction is "call NdisMRegisterMiniport".
	in, err := isa.Decode(im.Text[3*isa.InstrSize:])
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != isa.CALL {
		t.Fatalf("instr 3 is %v, want call", in.Op.Name())
	}
	slot, ok := isa.InTrapWindow(in.Imm)
	if !ok || slot != 0 {
		t.Errorf("call target %#x, want trap slot 0", in.Imm)
	}
}

func TestLocalCallAndBranchTargets(t *testing.T) {
	im := mustAsm(t, miniDriver)
	dis := binimg.Disassemble(im)
	if !strings.Contains(dis, "call 0x1000") { // helper label in text
		t.Errorf("local call not resolved:\n%s", dis)
	}
	// beq target "fail" must be a text VA.
	in, err := isa.Decode(im.Text[5*isa.InstrSize:])
	if err != nil || in.Op != isa.BEQ {
		t.Fatalf("instr 5 = %v, err %v", in, err)
	}
	if in.Imm < isa.ImageBase || in.Imm >= isa.ImageBase+uint32(len(im.Text)) {
		t.Errorf("branch target %#x outside text", in.Imm)
	}
}

func TestDataLabelResolution(t *testing.T) {
	im := mustAsm(t, miniDriver)
	// "movi r0, greeting" is instruction 2.
	in, _ := isa.Decode(im.Text[2*isa.InstrSize:])
	if in.Op != isa.MOVI {
		t.Fatalf("instr 2 = %v", in.Op.Name())
	}
	if in.Imm != im.DataBase() {
		t.Errorf("greeting VA = %#x, want data base %#x", in.Imm, im.DataBase())
	}
	// Data word referencing a text label: caps[3] == DriverEntry VA.
	capsOff := 8 // "hello\0" padded to 8
	word := uint32(im.Data[capsOff+12]) | uint32(im.Data[capsOff+13])<<8 |
		uint32(im.Data[capsOff+14])<<16 | uint32(im.Data[capsOff+15])<<24
	if word != im.Entry {
		t.Errorf("caps[3] = %#x, want entry %#x", word, im.Entry)
	}
}

func TestBSSLabelPointsAtBSSBase(t *testing.T) {
	im := mustAsm(t, miniDriver)
	// "movi r0, counters" inside helper (instruction 12).
	in, _ := isa.Decode(im.Text[12*isa.InstrSize:])
	if in.Op != isa.MOVI {
		t.Fatalf("instr 12 = %v", in.Op.Name())
	}
	if in.Imm != im.BSSBase() {
		t.Errorf("counters VA = %#x, want bss base %#x", in.Imm, im.BSSBase())
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	im := mustAsm(t, miniDriver)
	im2, err := binimg.Parse(im.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if im2.Name != im.Name || im2.Entry != im.Entry || im2.BSSSize != im.BSSSize {
		t.Errorf("round trip mismatch: %+v vs %+v", im2, im)
	}
	if string(im2.Text) != string(im.Text) || string(im2.Data) != string(im.Data) {
		t.Error("section contents differ after round trip")
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no entry", ".text\nstart: ret\n", "missing .entry"},
		{"bad mnemonic", ".entry e\n.text\ne: frobnicate r0\n", "unknown mnemonic"},
		{"undefined symbol", ".entry e\n.text\ne: jmp nowhere\n", "undefined symbol"},
		{"dup label", ".entry e\n.text\ne: ret\ne: ret\n", "already defined"},
		{"dup import", ".import X\n.import X\n.entry e\n.text\ne: ret\n", "duplicate import"},
		{"instr outside text", ".entry e\nret\n", "outside .text"},
		{"bad register", ".entry e\n.text\ne: mov r99, r0\n", "bad register"},
		{"word outside data", ".entry e\n.text\ne: ret\n.word 5\n", ".word outside .data"},
		{"data after space", ".entry e\n.text\ne: ret\n.data\n.space 8\n.word 1\n", "bss must come last"},
		{"bad device class", ".device class=quantum\n.entry e\n.text\ne: ret\n", "unknown device class"},
		{"missing operand", ".entry e\n.text\ne: add r0, r1\n", "missing operand"},
		{"bss wraps", ".entry e\n.text\ne: ret\n.data\nx: .space 0xFFFFFFFC\ny: .space 8\n", "bss exceeds"},
		{"bss too large", ".entry e\n.text\ne: ret\n.data\n.space 0x1000001\n", "bss exceeds"},
		{"long import", ".import " + strings.Repeat("x", 256) + "\n.entry e\n.text\ne: ret\n", "longer than 255"},
		{"long name", ".name " + strings.Repeat("x", 256) + "\n.entry e\n.text\ne: ret\n", "longer than 255"},
	}
	for _, tc := range cases {
		_, err := Assemble(tc.src)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble(".entry e\n.text\ne: ret\nbogus r0\n")
	aerr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if aerr.Line != 4 {
		t.Errorf("line = %d, want 4", aerr.Line)
	}
}

func TestNegativeImmediates(t *testing.T) {
	im := mustAsm(t, ".entry e\n.text\ne: addi sp, sp, -16\n ldw r0, [sp-4]\n ret\n")
	in, _ := isa.Decode(im.Text)
	if int32(in.Imm) != -16 {
		t.Errorf("addi imm = %d, want -16", int32(in.Imm))
	}
	in2, _ := isa.Decode(im.Text[isa.InstrSize:])
	if int32(in2.Imm) != -4 {
		t.Errorf("ldw offset = %d, want -4", int32(in2.Imm))
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
.entry e   ; entry comment
.text
; full line comment
# hash comment
e:   ret   # trailing
`
	im := mustAsm(t, src)
	if len(im.Text) != isa.InstrSize {
		t.Errorf("text = %d bytes, want one instruction", len(im.Text))
	}
}

func TestAscizWithSemicolonInString(t *testing.T) {
	im := mustAsm(t, ".entry e\n.text\ne: ret\n.data\ns: .asciz \"a;b\"\n")
	if string(im.Data[:4]) != "a;b\x00" {
		t.Errorf("data = %q", im.Data)
	}
}

func TestMultipleLabelsSameAddress(t *testing.T) {
	im := mustAsm(t, ".entry a\n.text\na: b: ret\n")
	if im.Entry != isa.ImageBase {
		t.Errorf("entry = %#x", im.Entry)
	}
}

func TestParseRejectsCorruptImages(t *testing.T) {
	im := mustAsm(t, miniDriver)
	raw := im.Marshal()
	if _, err := binimg.Parse(raw[:8]); err == nil {
		t.Error("truncated image accepted")
	}
	bad := append([]byte{}, raw...)
	bad[0] ^= 0xFF
	if _, err := binimg.Parse(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestBinInfoOnMiniDriver(t *testing.T) {
	im := mustAsm(t, miniDriver)
	info := binimg.Analyze(im)
	if info.NumFunctions != 2 { // DriverEntry + helper
		t.Errorf("functions = %d, want 2", info.NumFunctions)
	}
	if info.KernelImports != 1 { // only NdisMRegisterMiniport is called
		t.Errorf("kernel imports called = %d, want 1", info.KernelImports)
	}
	if info.CodeSize != len(im.Text) || info.NumInstructions != len(im.Text)/isa.InstrSize {
		t.Errorf("size accounting wrong: %+v", info)
	}
	if info.NumBasicBlocks < 4 {
		t.Errorf("basic blocks = %d, want >= 4", info.NumBasicBlocks)
	}
}

func TestStaticBlocksSortedAndInText(t *testing.T) {
	im := mustAsm(t, miniDriver)
	blocks := binimg.StaticBlocks(im)
	if len(blocks) == 0 || blocks[0] != im.TextBase() {
		t.Fatalf("blocks = %v", blocks)
	}
	for i := 1; i < len(blocks); i++ {
		if blocks[i] <= blocks[i-1] {
			t.Errorf("blocks not strictly sorted at %d", i)
		}
		if blocks[i] >= im.TextBase()+uint32(len(im.Text)) {
			t.Errorf("block %#x outside text", blocks[i])
		}
	}
}
