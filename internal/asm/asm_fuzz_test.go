package asm

import (
	"reflect"
	"testing"

	"repro/internal/binimg"
	"repro/internal/isa"
)

// FuzzAssemble feeds arbitrary source text to Assemble. It must not panic
// or hang. An image it returns holds only instructions that decode, an
// entry point inside its text, and survives a Marshal/Parse round trip
// unchanged. Seeds live in testdata/fuzz/FuzzAssemble.
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		img, err := Assemble(src)
		if err != nil {
			return
		}
		for off := 0; off < len(img.Text); off += isa.InstrSize {
			if _, err := isa.Decode(img.Text[off:]); err != nil {
				t.Fatalf("assembled instruction at +%#x does not decode: %v", off, err)
			}
		}
		if img.Entry < isa.ImageBase || img.Entry >= isa.ImageBase+uint32(len(img.Text)) {
			t.Fatalf("entry %#x outside %d bytes of text", img.Entry, len(img.Text))
		}
		again, err := binimg.Parse(img.Marshal())
		if err != nil {
			t.Fatalf("assembled image does not parse: %v", err)
		}
		if !reflect.DeepEqual(again, img) {
			t.Fatalf("image changed across Marshal/Parse:\n%+v\n%+v", img, again)
		}
	})
}
