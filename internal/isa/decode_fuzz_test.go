package isa_test

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// FuzzDecode feeds arbitrary bytes to isa.Decode, the boundary every
// closed driver image crosses instruction by instruction. Decode must not
// panic; a short buffer is an error; the decoded fields re-encode to the
// input's first 8 bytes whether or not the instruction is valid; it is
// valid exactly when the opcode is defined and every register field is in
// range; and a valid instruction's disassembly assembles back to an
// instruction with the same disassembly. Seeds live in
// testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		in, err := isa.Decode(b)
		if len(b) < isa.InstrSize {
			if err == nil {
				t.Fatalf("%d-byte buffer decoded", len(b))
			}
			return
		}
		var out [isa.InstrSize]byte
		in.Encode(out[:])
		if !bytes.Equal(out[:], b[:isa.InstrSize]) {
			t.Fatalf("decoded %+v re-encodes to % x, input % x", in, out, b[:isa.InstrSize])
		}
		valid := in.Op.Valid() && in.Rd < isa.NumRegs && in.Rs1 < isa.NumRegs && in.Rs2 < isa.NumRegs
		if valid != (err == nil) {
			t.Fatalf("% x: valid %v, decode error %v", b[:isa.InstrSize], valid, err)
		}
		if err != nil {
			return
		}
		text := in.String()
		img, err := asm.Assemble(".entry e\n.text\ne: " + text + "\n")
		if err != nil {
			t.Fatalf("disassembly %q does not assemble: %v", text, err)
		}
		again, err := isa.Decode(img.Text)
		if err != nil || again.String() != text {
			t.Fatalf("disassembly %q assembles to %q (%v)", text, again.String(), err)
		}
	})
}
