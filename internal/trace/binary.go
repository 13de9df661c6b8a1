package trace

// Binary format
//
// A compact, streamable encoding for large generated traces (not meant
// for interchange outside this module). Events are encoded one by
// one, so a BinaryScanner can feed an engine one event at a time with
// O(1) memory:
//
//	magic "TCT1" (4 bytes)
//	name:    uvarint length + bytes
//	threads: uvarint   (identifier-space sizes; informative — streaming
//	locks:   uvarint    consumers may ignore them and discover the
//	vars:    uvarint    spaces on the fly)
//	events:  uvarint count, then per event:
//	         1 byte kind, uvarint thread, uvarint operand
//
// Every uvarint must be minimal, the spelling binary.AppendUvarint
// writes, so a trace has one accepted spelling. The per-event encoding
// is also the payload of tcraced's events frame (internal/daemon):
// AppendEvent writes it and DecodeEvents reads it for both, and
// DecodeEvents is where the identifier bound [0, vt.MaxID) that every
// consumer of decoded events relies on is enforced.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"treeclock/internal/ckpt"
	"treeclock/internal/vt"
)

// binaryMagic identifies (and versions) the binary trace format.
var binaryMagic = [4]byte{'T', 'C', 'T', '1'}

// binBufSize is the size of the scanner's refill window and of the
// writer's output chunks: large enough that refills are rare, small
// enough to stay cache-resident.
const binBufSize = 64 << 10

// maxEventEnc is the longest event AppendEvent writes: one kind byte
// plus two 32-bit uvarints.
const maxEventEnc = 1 + 2*binary.MaxVarintLen32

// maxEmptyReads is how many consecutive (0, nil) reads a scanner
// accepts before it fails with io.ErrNoProgress.
const maxEmptyReads = 100

var (
	errOverflow   = errors.New("trace: uvarint overflows 64 bits")
	errNonMinimal = errors.New("trace: uvarint is not minimally encoded")
)

// AppendEvent appends the encoding of ev to dst: the kind byte, then
// the thread and the operand as uvarints of their 32-bit patterns. An
// identifier in [0, vt.MaxID) takes one to four bytes.
func AppendEvent(dst []byte, ev Event) []byte {
	dst = append(dst, byte(ev.Kind))
	dst = binary.AppendUvarint(dst, uint64(uint32(ev.T)))
	return binary.AppendUvarint(dst, uint64(uint32(ev.Obj)))
}

// DecodeEvents decodes events from the front of src into dst until dst
// is full, src is exhausted or src ends inside an event, and returns
// the number of events decoded and of bytes they took. A non-nil error
// means the event after them is invalid, which no further bytes can
// mend: its kind is out of range, a uvarint overflows or is not
// minimal, or an identifier lies outside [0, vt.MaxID). Each check
// runs as soon as src holds the bytes it reads, so a prefix of an
// invalid event is either incomplete or fails as the whole event does.
func DecodeEvents(dst []Event, src []byte) (n, used int, err error) {
	for n < len(dst) {
		// The common shape, both identifiers below 128, stays in the
		// loop: three loads and no call.
		if b := src[used:]; len(b) >= 3 {
			if k, t, o := b[0], b[1], b[2]; t|o < 0x80 && Kind(k) < numKinds {
				dst[n] = Event{T: vt.TID(t), Obj: int32(o), Kind: Kind(k)}
				used += 3
				n++
				continue
			}
		}
		ev, size, err := decodeEvent(src[used:])
		if size == 0 {
			return n, used, err
		}
		dst[n] = ev
		used += size
		n++
	}
	return n, used, nil
}

// decodeEvent decodes the event at the front of b and returns it with
// its length; a zero length with a nil error means b ends inside it.
func decodeEvent(b []byte) (Event, int, error) {
	if len(b) == 0 {
		return Event{}, 0, nil
	}
	kind := Kind(b[0])
	if kind >= numKinds {
		return Event{}, 0, fmt.Errorf("invalid kind %d", b[0])
	}
	t, i, err := uvarint(b[1:])
	if i == 0 {
		return Event{}, 0, err
	}
	i++
	obj, j, err := uvarint(b[i:])
	if j == 0 {
		return Event{}, 0, err
	}
	// Identifiers index dense per-identifier state downstream; anything
	// at or above the global bound would become a negative id or a huge
	// allocation in a grow path.
	if t >= vt.MaxID || obj >= vt.MaxID {
		return Event{}, 0, fmt.Errorf("identifier out of range (thread %d, operand %d)", t, obj)
	}
	return Event{T: vt.TID(t), Obj: int32(obj), Kind: kind}, i + j, nil
}

// uvarint decodes the minimal uvarint at the front of b and returns it
// with its length; a zero length with a nil error means b ends inside
// it. Unlike binary.Uvarint it reports an overflow at the tenth byte,
// without waiting for an eleventh.
func uvarint(b []byte) (uint64, int, error) {
	var x uint64
	for i, c := range b {
		if i == binary.MaxVarintLen64-1 && c > 1 {
			return 0, 0, errOverflow
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if !ckpt.Minimal(b, i+1) {
				return 0, 0, errNonMinimal
			}
			return x, i + 1, nil
		}
	}
	return 0, 0, nil
}

// WriteBinary serializes the trace to the streamable binary format.
func WriteBinary(w io.Writer, tr *Trace) error {
	buf := append(make([]byte, 0, binBufSize), binaryMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(tr.Meta.Name)))
	buf = append(buf, tr.Meta.Name...)
	for _, v := range [4]int{tr.Meta.Threads, tr.Meta.Locks, tr.Meta.Vars, len(tr.Events)} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	for _, e := range tr.Events {
		if len(buf) > binBufSize-maxEventEnc {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = AppendEvent(buf, e)
	}
	_, err := w.Write(buf)
	return err
}

// BinaryScanner streams events from the binary trace format without
// materializing the trace. It implements EventSource.
//
// Decoding runs DecodeEvents over an explicit byte window instead of a
// bufio.Reader, whose per-byte method calls were a double-digit share
// of the fastest engines' event loop; the window is refilled only when
// it ends inside an event.
type BinaryScanner struct {
	r    io.Reader
	buf  []byte
	pos  int   // next unread byte in buf
	end  int   // valid bytes in buf
	eof  bool  // underlying reader is exhausted
	rerr error // underlying read error (io.EOF excluded)

	consumed int64 // total bytes read from r (checkpoint offset accounting)

	meta    Meta
	total   uint64 // declared event count
	read    uint64 // events returned so far
	started bool
	err     error
}

// NewBinaryScanner wraps a binary-format trace stream. The header is
// read lazily on the first Next or Meta call.
func NewBinaryScanner(r io.Reader) *BinaryScanner {
	return &BinaryScanner{r: r, buf: make([]byte, binBufSize)}
}

// fill slides the unread tail to the front of the window and reads
// until some bytes arrive or the input ends. A reader that keeps
// returning (0, nil) fails with io.ErrNoProgress, as it does for the
// text Scanner.
func (s *BinaryScanner) fill() {
	if s.pos > 0 {
		copy(s.buf, s.buf[s.pos:s.end])
		s.end -= s.pos
		s.pos = 0
	}
	for empty := 0; !s.eof && s.end < len(s.buf); empty++ {
		if empty == maxEmptyReads {
			s.rerr, s.eof = io.ErrNoProgress, true
			return
		}
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		s.consumed += int64(n)
		if err != nil {
			if err != io.EOF {
				s.rerr = err
			}
			s.eof = true
			return
		}
		if n > 0 {
			return
		}
	}
}

// short is the error for input that ends inside an item: the
// underlying read error, or io.EOF.
func (s *BinaryScanner) short() error {
	if s.rerr != nil {
		return s.rerr
	}
	return io.EOF
}

// readFull fills p from the window, refilling as needed.
func (s *BinaryScanner) readFull(p []byte) error {
	for n := 0; n < len(p); {
		if s.pos >= s.end {
			s.fill()
			if s.pos >= s.end {
				if s.rerr != nil {
					return s.rerr
				}
				return io.ErrUnexpectedEOF
			}
		}
		c := copy(p[n:], s.buf[s.pos:s.end])
		s.pos += c
		n += c
	}
	return nil
}

// headerUvarint reads one header uvarint from the window, refilling
// until the window holds all of it or the input ends.
func (s *BinaryScanner) headerUvarint() (uint64, error) {
	for {
		v, n, err := uvarint(s.buf[s.pos:s.end])
		if n > 0 {
			s.pos += n
			return v, nil
		}
		if err != nil {
			return 0, err
		}
		if s.eof {
			return 0, s.short()
		}
		s.fill()
	}
}

// header reads and validates the stream header once.
func (s *BinaryScanner) header() error {
	if s.started || s.err != nil {
		return s.err
	}
	s.started = true
	s.err = s.readHeader()
	return s.err
}

// readHeader decodes the stream header into s.meta and s.total.
func (s *BinaryScanner) readHeader() error {
	var magic [4]byte
	if err := s.readFull(magic[:]); err != nil {
		return fmt.Errorf("trace: reading binary header: %w", err)
	}
	if magic != binaryMagic {
		return fmt.Errorf("trace: bad binary magic %q (want %q)", magic[:], binaryMagic[:])
	}
	nameLen, err := s.headerUvarint()
	if err != nil {
		return fmt.Errorf("trace: reading binary header: %w", err)
	}
	const maxNameLen = 1 << 20
	if nameLen > maxNameLen {
		return fmt.Errorf("trace: binary trace name length %d too large", nameLen)
	}
	name := make([]byte, nameLen)
	if err := s.readFull(name); err != nil {
		return fmt.Errorf("trace: reading binary header: %w", err)
	}
	s.meta.Name = string(name)
	var fields [4]uint64
	for i := range fields {
		if fields[i], err = s.headerUvarint(); err != nil {
			return fmt.Errorf("trace: reading binary header: %w", err)
		}
		if i < 3 && fields[i] >= vt.MaxID {
			return fmt.Errorf("trace: binary header field %d out of range (%d)", i, fields[i])
		}
	}
	s.meta.Threads = int(fields[0])
	s.meta.Locks = int(fields[1])
	s.meta.Vars = int(fields[2])
	s.total = fields[3]
	return nil
}

// Next returns the next event. It reports ok == false at end of input
// or on error; check Err afterwards.
func (s *BinaryScanner) Next() (Event, bool) {
	var ev [1]Event
	n, _ := s.NextBatch(ev[:])
	return ev[0], n == 1
}

// NextBatch fills buf with up to len(buf) events; see
// BatchSource.NextBatch for the contract. Events are decoded straight
// from the window, which is refilled whenever it ends inside one.
func (s *BinaryScanner) NextBatch(buf []Event) (n int, ok bool) {
	if err := s.header(); err != nil {
		return 0, false
	}
	want := len(buf)
	if rem := s.total - s.read; uint64(want) > rem {
		want = int(rem)
	}
	for n < want {
		k, used, err := DecodeEvents(buf[n:want], s.buf[s.pos:s.end])
		s.pos += used
		s.read += uint64(k)
		n += k
		if err == nil && n < want && s.eof {
			err = s.short()
		}
		if err != nil {
			s.err = fmt.Errorf("trace: event %d: %w", s.read, err)
			break
		}
		if n < want {
			s.fill()
		}
	}
	return n, n > 0
}

// Err returns the first error encountered, or nil at clean EOF.
func (s *BinaryScanner) Err() error { return s.err }

// Meta reports the identifier spaces declared in the stream header.
func (s *BinaryScanner) Meta() Meta {
	_ = s.header()
	return s.meta
}

// Len reports the event count declared in the stream header.
func (s *BinaryScanner) Len() int {
	_ = s.header()
	return int(s.total)
}

// ScanAll drains the scanner into a materialized trace.
func (s *BinaryScanner) ScanAll() (*Trace, error) {
	if err := s.header(); err != nil {
		return nil, err
	}
	capHint := s.total
	if capHint > 1<<20 { // don't trust a corrupt header with the allocation
		capHint = 1 << 20
	}
	events := make([]Event, 0, capHint)
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		events = append(events, ev)
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return &Trace{Meta: s.meta, Events: events}, nil
}

// ReadBinary deserializes a trace written by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	return NewBinaryScanner(r).ScanAll()
}

var _ EventSource = (*BinaryScanner)(nil)
var _ EventSource = (*Scanner)(nil)
