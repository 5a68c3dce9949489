// Package binimg defines the DXE driver binary image format — the
// closed-source artifact DDT consumes. A DXE image carries machine code,
// initialized data, a bss size, an entry point, an import table naming the
// kernel APIs the driver links against, and a PCI device descriptor for the
// fake device that tricks the OS into loading the driver (§4.2 of the
// paper). It deliberately carries no symbol information: DDT must work from
// the binary alone.
package binimg

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// Magic identifies a DXE version-1 image.
const Magic uint32 = 0x31455844 // "DXE1" little-endian

// DeviceClass selects which kernel driver model binds the device.
type DeviceClass uint8

// Device classes understood by the simulated kernel's PnP manager.
const (
	ClassNetwork DeviceClass = iota
	ClassAudio
	ClassOther
	ClassStorage // appended after ClassOther to keep wire values stable
)

func (c DeviceClass) String() string {
	switch c {
	case ClassNetwork:
		return "network"
	case ClassAudio:
		return "audio"
	case ClassStorage:
		return "storage"
	default:
		return "other"
	}
}

// PCIDescriptor is the fake device's configuration-space identity: enough
// for the PnP manager to select this driver and allocate resources, and for
// DDT to expose a symbolic BAR window and interrupt line.
type PCIDescriptor struct {
	VendorID uint16
	DeviceID uint16
	Class    DeviceClass
	BARSize  uint32 // size of the single memory BAR, bytes
	IOPorts  uint16 // number of I/O ports the device claims
	IRQLine  uint8
	Revision uint8
}

// Image is a parsed DXE driver binary.
type Image struct {
	Name    string // driver name (from the .inf equivalent), e.g. "rtl8029"
	Entry   uint32 // absolute VA of DriverEntry after loading at ImageBase
	Text    []byte // machine code, loaded at ImageBase
	Data    []byte // initialized data, loaded after text (8-byte aligned)
	BSSSize uint32 // zero-initialized region after data
	Imports []string
	Device  PCIDescriptor
}

// TextBase returns the VA of the first text byte.
func (im *Image) TextBase() uint32 { return isa.ImageBase }

// DataBase returns the VA of the first data byte.
func (im *Image) DataBase() uint32 {
	return isa.ImageBase + align8(uint32(len(im.Text)))
}

// BSSBase returns the VA of the first bss byte.
func (im *Image) BSSBase() uint32 {
	return im.DataBase() + align8(uint32(len(im.Data)))
}

// LimitVA returns the first VA past the loaded image.
func (im *Image) LimitVA() uint32 {
	return im.BSSBase() + align8(im.BSSSize)
}

// ImportSlot returns the import-table slot for the named API, or -1.
func (im *Image) ImportSlot(name string) int {
	for i, n := range im.Imports {
		if n == name {
			return i
		}
	}
	return -1
}

func align8(v uint32) uint32 { return (v + 7) &^ 7 }

// Marshal serializes the image to its on-disk DXE form.
func (im *Image) Marshal() []byte {
	var buf bytes.Buffer
	w32 := func(v uint32) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	w16 := func(v uint16) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	wstr := func(s string) {
		if len(s) > MaxName {
			s = s[:MaxName]
		}
		buf.WriteByte(byte(len(s)))
		buf.WriteString(s)
	}

	w32(Magic)
	wstr(im.Name)
	w32(im.Entry)
	w32(uint32(len(im.Text)))
	w32(uint32(len(im.Data)))
	w32(im.BSSSize)
	w32(uint32(len(im.Imports)))
	for _, name := range im.Imports {
		wstr(name)
	}
	w16(im.Device.VendorID)
	w16(im.Device.DeviceID)
	buf.WriteByte(byte(im.Device.Class))
	w32(im.Device.BARSize)
	w16(im.Device.IOPorts)
	buf.WriteByte(im.Device.IRQLine)
	buf.WriteByte(im.Device.Revision)
	buf.Write(im.Text)
	buf.Write(im.Data)
	return buf.Bytes()
}

// Image limits: the largest text, data or bss section, and the longest
// driver or import name (a one-byte length; Marshal truncates longer ones).
const (
	MaxSection = 16 << 20
	MaxName    = 255
)

// Parse deserializes a DXE image, validating structure and limits.
func Parse(b []byte) (*Image, error) {
	r := &reader{b: b}
	if m := r.u32(); m != Magic {
		return nil, fmt.Errorf("binimg: bad magic %#x", m)
	}
	im := &Image{}
	im.Name = r.str()
	im.Entry = r.u32()
	textLen := r.u32()
	dataLen := r.u32()
	im.BSSSize = r.u32()
	nimp := r.u32()
	if r.err != nil {
		return nil, fmt.Errorf("binimg: truncated header: %w", r.err)
	}
	if textLen > MaxSection || dataLen > MaxSection || im.BSSSize > MaxSection {
		return nil, fmt.Errorf("binimg: section too large (text=%d data=%d bss=%d)", textLen, dataLen, im.BSSSize)
	}
	if textLen%isa.InstrSize != 0 {
		return nil, fmt.Errorf("binimg: text size %d not a multiple of the instruction size", textLen)
	}
	if nimp > isa.MaxImports {
		return nil, fmt.Errorf("binimg: too many imports (%d)", nimp)
	}
	for i := uint32(0); i < nimp; i++ {
		im.Imports = append(im.Imports, r.str())
	}
	im.Device.VendorID = r.u16()
	im.Device.DeviceID = r.u16()
	im.Device.Class = DeviceClass(r.u8())
	im.Device.BARSize = r.u32()
	im.Device.IOPorts = r.u16()
	im.Device.IRQLine = r.u8()
	im.Device.Revision = r.u8()
	im.Text = r.bytes(int(textLen))
	im.Data = r.bytes(int(dataLen))
	if r.err != nil {
		return nil, fmt.Errorf("binimg: truncated image: %w", r.err)
	}
	if im.Entry < isa.ImageBase || im.Entry >= isa.ImageBase+textLen {
		return nil, fmt.Errorf("binimg: entry point %#x outside text", im.Entry)
	}
	if (im.Entry-isa.ImageBase)%isa.InstrSize != 0 {
		return nil, fmt.Errorf("binimg: misaligned entry point %#x", im.Entry)
	}
	return im, nil
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) str() string {
	n := int(r.u8())
	return string(r.bytes(n))
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("unexpected end of image at offset %d", r.off)
	}
}
