// Package ckpt implements the wire format shared by every checkpoint
// producer and consumer in this repository: a versioned preamble
// followed by named, length-prefixed, CRC-checked sections.
//
// The unit of framing is the section. A section is
//
//	uvarint(len(name)) name uvarint(len(payload)) payload crc32(name+payload)
//
// with the CRC stored as a fixed little-endian uint32 (IEEE
// polynomial). Sections are self-delimiting, so independent Enc/Dec
// instances over the same stream compose: the engine runtime, each
// semantics plugin and each trace source writes its own sections with
// its own encoder, and a reader consumes them in the same order with
// any number of decoders. Nothing is buffered across sections.
//
// Decoding is defensive end to end: every failure — short reads, CRC
// mismatches, section-name mismatches, leftover payload bytes,
// out-of-range counts — surfaces as an error wrapping ErrCorrupt,
// never a panic, and payloads are read incrementally so a corrupt
// length cannot trigger a huge allocation. Both Enc and Dec are
// sticky: after the first error every later call is a no-op, so call
// sites check Err once per section.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrCorrupt is the sentinel wrapped by every decode failure: a
// truncated stream, a CRC mismatch, an unexpected section, or any
// out-of-range value. Callers distinguish "the checkpoint is bad"
// from plain I/O trouble with errors.Is(err, ErrCorrupt).
var ErrCorrupt = errors.New("corrupt checkpoint")

// Version is the current checkpoint format version, written by
// Enc.Header and required by Dec.Header. Any change to what a section
// contains is a format change and must bump it.
const Version = 2

const magic = "TCKP"

// maxSliceCap bounds every count, length and capacity Dec hands out.
// It is far above anything a real checkpoint contains (identifier
// spaces, not trace length) while keeping a corrupt value from
// forcing a multi-gigabyte allocation before the CRC is even checked.
const maxSliceCap = 1 << 26

// maxNameLen bounds section names.
const maxNameLen = 1 << 8

// Enc writes checkpoint sections to an io.Writer. Primitives append
// to the open section's payload; End frames and flushes it. Enc is
// sticky: the first write error latches and everything after is a
// no-op.
type Enc struct {
	w    io.Writer
	name string
	open bool
	buf  []byte
	err  error
}

// NewEnc returns an encoder over w.
func NewEnc(w io.Writer) *Enc { return &Enc{w: w} }

// Err returns the first error encountered.
func (e *Enc) Err() error { return e.err }

func (e *Enc) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Header writes the checkpoint preamble: magic plus format version.
func (e *Enc) Header() {
	if e.err != nil {
		return
	}
	var h [len(magic) + 1]byte
	copy(h[:], magic)
	h[len(magic)] = Version
	if _, err := e.w.Write(h[:]); err != nil {
		e.fail(fmt.Errorf("ckpt: writing header: %w", err))
	}
}

// Begin opens a section. Sections do not nest.
func (e *Enc) Begin(name string) {
	if e.err != nil {
		return
	}
	if e.open {
		e.fail(fmt.Errorf("ckpt: Begin(%q) inside open section %q", name, e.name))
		return
	}
	e.name, e.open, e.buf = name, true, e.buf[:0]
}

// End frames the open section and writes it out.
func (e *Enc) End() {
	if e.err != nil {
		return
	}
	if !e.open {
		e.fail(errors.New("ckpt: End outside a section"))
		return
	}
	e.open = false
	var hdr [binary.MaxVarintLen64]byte
	frame := make([]byte, 0, 2*binary.MaxVarintLen64+len(e.name)+len(e.buf)+4)
	n := binary.PutUvarint(hdr[:], uint64(len(e.name)))
	frame = append(frame, hdr[:n]...)
	frame = append(frame, e.name...)
	n = binary.PutUvarint(hdr[:], uint64(len(e.buf)))
	frame = append(frame, hdr[:n]...)
	frame = append(frame, e.buf...)
	crc := crc32.ChecksumIEEE([]byte(e.name))
	crc = crc32.Update(crc, crc32.IEEETable, e.buf)
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], crc)
	frame = append(frame, c[:]...)
	if _, err := e.w.Write(frame); err != nil {
		e.fail(fmt.Errorf("ckpt: writing section %q: %w", e.name, err))
	}
}

func (e *Enc) append(b ...byte) {
	if e.err != nil {
		return
	}
	if !e.open {
		e.fail(errors.New("ckpt: write outside a section"))
		return
	}
	e.buf = append(e.buf, b...)
}

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.append(v) }

// U32 appends a fixed-width little-endian uint32.
func (e *Enc) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.append(b[:]...)
}

// U64 appends a fixed-width little-endian uint64.
func (e *Enc) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.append(b[:]...)
}

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	e.append(b[:n]...)
}

// Svarint appends a zig-zag signed varint.
func (e *Enc) Svarint(v int64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutVarint(b[:], v)
	e.append(b[:n]...)
}

// Int appends a signed integer (zig-zag varint).
func (e *Enc) Int(v int) { e.Svarint(int64(v)) }

// Int32 appends a signed 32-bit integer (zig-zag varint).
func (e *Enc) Int32(v int32) { e.Svarint(int64(v)) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.append(1)
	} else {
		e.append(0)
	}
}

// Bytes appends a length-prefixed byte string.
func (e *Enc) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.append(b...)
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.append([]byte(s)...)
}

// Dec reads checkpoint sections from an io.Reader, mirroring Enc.
// Begin reads, CRC-checks and buffers one whole section; primitives
// then decode from the buffered payload and End requires it to be
// fully consumed. Dec is sticky like Enc.
type Dec struct {
	r    io.Reader
	name string
	open bool
	buf  []byte
	pos  int
	err  error
}

// NewDec returns a decoder over r.
func NewDec(r io.Reader) *Dec { return &Dec{r: r} }

// Err returns the first error encountered.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// corrupt latches a decoding failure wrapping ErrCorrupt.
func (d *Dec) corrupt(format string, args ...any) {
	args = append(args, ErrCorrupt)
	d.fail(fmt.Errorf("ckpt: "+format+": %w", args...))
}

// Corruptf lets callers latch a semantic validation failure — a
// CRC-valid payload that is nonetheless inconsistent (a dangling
// arena reference, mismatched lengths) — as a corruption error, so
// every rejection path reports through the one ErrCorrupt sentinel.
func (d *Dec) Corruptf(format string, args ...any) {
	d.corrupt(format, args...)
}

// Header reads and verifies the checkpoint preamble.
func (d *Dec) Header() {
	if d.err != nil {
		return
	}
	var h [len(magic) + 1]byte
	if _, err := io.ReadFull(d.r, h[:]); err != nil {
		d.corrupt("reading header: %v", err)
		return
	}
	if string(h[:len(magic)]) != magic {
		d.corrupt("bad magic %q (want %q)", h[:len(magic)], magic)
		return
	}
	if h[len(magic)] != Version {
		d.corrupt("unsupported format version %d (have %d)", h[len(magic)], Version)
	}
}

// rawUvarint decodes a varint straight from the underlying reader
// (section headers live outside any payload). Like every varint Dec
// reads, it must be minimally encoded — the only form Enc writes — so
// an encoding has exactly one accepted spelling.
func (d *Dec) rawUvarint() uint64 {
	var v uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		var b [1]byte
		if _, err := io.ReadFull(d.r, b[:]); err != nil {
			d.corrupt("reading section header: %v", err)
			return 0
		}
		if i == binary.MaxVarintLen64-1 && b[0] > 1 {
			break // overflows 64 bits
		}
		v |= uint64(b[0]&0x7f) << shift
		if b[0] < 0x80 {
			if i > 0 && b[0] == 0 {
				d.corrupt("section header varint not minimally encoded")
				return 0
			}
			return v
		}
		shift += 7
	}
	d.corrupt("section header varint overflows 64 bits")
	return 0
}

// readPayload reads n payload bytes incrementally so a corrupt length
// fails on the short read rather than on a giant allocation.
func (d *Dec) readPayload(n uint64) []byte {
	const chunk = 1 << 20
	buf := d.buf[:0]
	for n > 0 {
		c := n
		if c > chunk {
			c = chunk
		}
		off := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(d.r, buf[off:]); err != nil {
			d.corrupt("reading section %q payload: %v", d.name, err)
			return nil
		}
		n -= c
	}
	return buf
}

// Begin reads the next section, verifies its CRC and requires its
// name to be exactly name.
func (d *Dec) Begin(name string) {
	if d.err != nil {
		return
	}
	if d.open {
		d.fail(fmt.Errorf("ckpt: Begin(%q) inside open section %q", name, d.name))
		return
	}
	nameLen := d.rawUvarint()
	if d.err != nil {
		return
	}
	if nameLen > maxNameLen {
		d.corrupt("section name length %d too large", nameLen)
		return
	}
	nb := make([]byte, nameLen)
	if _, err := io.ReadFull(d.r, nb); err != nil {
		d.corrupt("reading section name: %v", err)
		return
	}
	d.name = string(nb)
	payLen := d.rawUvarint()
	if d.err != nil {
		return
	}
	d.buf = d.readPayload(payLen)
	if d.err != nil {
		return
	}
	var c [4]byte
	if _, err := io.ReadFull(d.r, c[:]); err != nil {
		d.corrupt("reading section %q checksum: %v", d.name, err)
		return
	}
	crc := crc32.ChecksumIEEE(nb)
	crc = crc32.Update(crc, crc32.IEEETable, d.buf)
	if got := binary.LittleEndian.Uint32(c[:]); got != crc {
		d.corrupt("section %q checksum mismatch (stored %08x, computed %08x)", d.name, got, crc)
		return
	}
	if d.name != name {
		d.corrupt("unexpected section %q (want %q)", d.name, name)
		return
	}
	d.open, d.pos = true, 0
}

// End closes the current section, requiring its payload to be fully
// consumed.
func (d *Dec) End() {
	if d.err != nil {
		return
	}
	if !d.open {
		d.fail(errors.New("ckpt: End outside a section"))
		return
	}
	d.open = false
	if d.pos != len(d.buf) {
		d.corrupt("section %q has %d leftover bytes", d.name, len(d.buf)-d.pos)
	}
}

// ExpectEOF requires the underlying reader to end here: a message is
// exactly its sections, so bytes after the last one are corruption.
func (d *Dec) ExpectEOF() {
	if d.err != nil {
		return
	}
	if d.open {
		d.fail(fmt.Errorf("ckpt: ExpectEOF inside open section %q", d.name))
		return
	}
	var b [1]byte
	switch _, err := io.ReadFull(d.r, b[:]); err {
	case io.EOF:
	case nil:
		d.corrupt("trailing bytes after the last section")
	default:
		d.corrupt("reading past the last section: %v", err)
	}
}

// Remaining returns the unread payload bytes of the open section. A
// caller that reads a count in its own encoding bounds it with this
// before allocating, the way Len does for uvarint counts.
func (d *Dec) Remaining() int { return len(d.buf) - d.pos }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if !d.open {
		d.fail(errors.New("ckpt: read outside a section"))
		return nil
	}
	if d.Remaining() < n {
		d.corrupt("section %q truncated (%d bytes left, need %d)", d.name, d.Remaining(), n)
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a fixed-width little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed-width little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if !d.open {
		d.fail(errors.New("ckpt: read outside a section"))
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 || !Minimal(d.buf[d.pos:], n) {
		d.corrupt("section %q: bad varint", d.name)
		return 0
	}
	d.pos += n
	return v
}

// Svarint reads a zig-zag signed varint.
func (d *Dec) Svarint() int64 {
	ux := d.Uvarint()
	v := int64(ux >> 1)
	if ux&1 != 0 {
		v = ^v
	}
	return v
}

// Minimal reports whether the n-byte varint that binary.Uvarint or
// binary.Varint decoded from the start of b is the shortest spelling of
// its value, the one binary.AppendUvarint writes; a longer one ends in
// a redundant zero byte. Dec, the event decoder of the binary trace
// format and the daemon's bare frame fields reject the rest, so each
// value has exactly one accepted spelling. It stays a one-line
// predicate so the per-event decoder inlines it.
func Minimal(b []byte, n int) bool { return n <= 1 || b[n-1] != 0 }

// Int reads a signed integer and range-checks it into int.
func (d *Dec) Int() int {
	v := d.Svarint()
	if int64(int(v)) != v {
		d.corrupt("section %q: integer %d out of range", d.name, v)
		return 0
	}
	return int(v)
}

// Int32 reads a signed 32-bit integer.
func (d *Dec) Int32() int32 {
	v := d.Svarint()
	if v < -1<<31 || v > 1<<31-1 {
		d.corrupt("section %q: int32 %d out of range", d.name, v)
		return 0
	}
	return int32(v)
}

// Bool reads a boolean.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.corrupt("section %q: bad boolean", d.name)
		}
		return false
	}
}

// Bytes reads a length-prefixed byte string (a fresh copy).
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.corrupt("section %q: byte string length %d exceeds payload", d.name, n)
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.corrupt("section %q: string length %d exceeds payload", d.name, n)
		return ""
	}
	return string(d.take(int(n)))
}

// Len reads an element count for a slice whose elements occupy at
// least elemSize payload bytes each, rejecting counts the remaining
// payload cannot possibly hold. Use it for every slice count so a
// corrupt length fails here instead of in make().
func (d *Dec) Len(elemSize int) int {
	if elemSize < 1 {
		elemSize = 1
	}
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining())/uint64(elemSize) {
		d.corrupt("section %q: count %d exceeds payload", d.name, n)
		return 0
	}
	return int(n)
}

// Cap reads a slice capacity that must be at least n (the slice
// length) and within the global sanity bound. Capacities are
// checkpointed wherever memory accounting reads cap, so restored
// slices keep byte-identical Heap numbers.
func (d *Dec) Cap(n int) int {
	c := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if c < uint64(n) || c > maxSliceCap {
		d.corrupt("section %q: capacity %d out of range (len %d)", d.name, c, n)
		return 0
	}
	return int(c)
}

// Count reads a bare count (not backed byte-for-byte by payload, e.g.
// a free-list length) bounded only by the global sanity limit.
func (d *Dec) Count() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > maxSliceCap {
		d.corrupt("section %q: count %d out of range", d.name, n)
		return 0
	}
	return int(n)
}
