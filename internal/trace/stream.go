package trace

import (
	"bytes"
	"fmt"
	"io"

	"treeclock/internal/vt"
)

// EventSource streams trace events one at a time: Next reports the
// next event until the input is exhausted or fails, and Err returns
// the first error (nil at clean EOF). The text Scanner and the
// BinaryScanner both implement it, and consumers read it in batches
// through ReadBatch, so arbitrarily large traces are analyzable in one
// pass without materialization. Sources that can deliver events in
// bulk additionally implement BatchSource, which ReadBatch prefers.
type EventSource interface {
	Next() (Event, bool)
	Err() error
}

// Scanner tokenizer tuning. The read buffer starts at readBufSize and
// doubles on demand up to maxLineSize, the bound a single line (and
// therefore the buffer) may reach — matching the old bufio.Scanner
// limit.
const (
	readBufSize = 256 * 1024
	maxLineSize = 16 * 1024 * 1024
)

// Scanner streams events from the text trace format without
// materializing the whole trace, for analyses over logs larger than
// memory. Identifiers are interned in order of first appearance, like
// ParseText; Meta() reports the ranges seen so far. Engines built on
// internal/engine grow their state dynamically, so they can consume a
// Scanner directly with no prior metadata.
//
// The scanner is a byte-level tokenizer over one large reused read
// buffer: lines are located and split into fields in place, and
// identifier interning copies a token only on first sight (the map
// lookup itself is keyed on the byte slice without conversion). In
// steady state — once every identifier has been seen — Next and
// NextBatch perform zero allocations per event.
type Scanner struct {
	r        io.Reader
	buf      []byte // reused read buffer; grows only for oversized lines
	pos      int    // start of unconsumed bytes
	end      int    // end of valid bytes
	eof      bool   // reader returned io.EOF
	readErr  error  // deferred non-EOF read error (buffered lines drain first)
	empty    int    // consecutive zero-byte reads (io.ErrNoProgress guard)
	consumed int64  // total bytes read from r (checkpoint offset accounting)
	threads  *intern
	locks    *intern
	vars     *intern
	line     int
	err      error
}

// NewScanner wraps a text-format trace stream.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{
		r:       r,
		buf:     make([]byte, readBufSize),
		threads: newIntern(),
		locks:   newIntern(),
		vars:    newIntern(),
	}
}

// SetInternCap bounds each identifier space's map-interned name table
// to n names (0, the default, keeps the tables unbounded). Once a
// table is full, interning a new name first evicts the coldest quarter
// of the table (least-recently-used); an evicted name seen again is a
// brand-new identifier with a fresh id. The ids handed out stay
// strictly monotone — no id is ever reused — so downstream engines
// never see old per-id state rebound to a different name, but they do
// see the identifier space keep growing, and any analysis state still
// attached to an evicted id is permanently orphaned. The cap is
// therefore only sound when cold names' analysis state is dead (e.g.
// variables that are never accessed again, threads already joined);
// a race between accesses that straddle an eviction is missed. The
// canonical-name direct-index path is unaffected (already bounded by
// its own fastLimit). Call before scanning begins.
func (s *Scanner) SetInternCap(n int) {
	s.threads.setCap(n)
	s.locks.setCap(n)
	s.vars.setCap(n)
}

// InternStats reports the map-interned name tables' total live size
// and cumulative evictions across the three identifier spaces — the
// quantity SetInternCap bounds (the direct-index fast tables are
// bounded separately by fastLimit).
func (s *Scanner) InternStats() (live int, evictions uint64) {
	for _, in := range [...]*intern{s.threads, s.locks, s.vars} {
		live += len(in.ids)
		evictions += in.evictions
	}
	return live, evictions
}

// InternCapable is the optional EventSource extension behind interner
// eviction: the text Scanner implements it, and transparent wrappers
// (CrashSource) delegate it, so callers can bound the interner without
// knowing the exact wrapping. Sources without interned names (binary,
// pre-decoded) simply don't implement it.
type InternCapable interface {
	SetInternCap(n int)
	InternStats() (live int, evictions uint64)
}

// Next returns the next event. It reports ok == false at end of input
// or on error; check Err afterwards.
//
// The hot path is a single fused scan: locating the end of the line,
// trimming whitespace and splitting the three fields all happen in one
// pass over the buffered bytes, with no per-line function calls. When
// a line turns out to be split across the buffer boundary, the scan
// restarts after a refill (bounded: once per buffer's worth of input).
func (s *Scanner) Next() (ev Event, ok bool) {
	if s.err != nil {
		return Event{}, false
	}
	for {
		buf, i, end := s.buf, s.pos, s.end
		// Skip leading whitespace.
		for i < end && isSpace(buf[i]) {
			i++
		}
		if i == end {
			if !s.atEnd() {
				s.fill()
				if s.err != nil {
					return Event{}, false
				}
				continue
			}
			s.pos = end
			// Input exhausted; surface a deferred read error now that
			// every buffered line has been delivered.
			if s.readErr != nil {
				s.err = fmt.Errorf("trace: %w", s.readErr)
			}
			return Event{}, false
		}
		switch buf[i] {
		case '\n': // blank line
			s.pos = i + 1
			s.line++
			continue
		case '#': // comment line: consume through the newline
			if nl := bytes.IndexByte(buf[i:end], '\n'); nl >= 0 {
				s.pos = i + nl + 1
			} else if !s.eof {
				if s.readErr != nil {
					return Event{}, s.failRead()
				}
				s.fill()
				if s.err != nil {
					return Event{}, false
				}
				continue
			} else {
				s.pos = end // final comment line without a newline
			}
			s.line++
			continue
		}
		// A real line most often has the exact canonical shape WriteText
		// emits; try the one-pass decoder first, falling back to the
		// general tokenizer on any mismatch (nothing is consumed then).
		if ev, ok, handled := s.fastLine(i); handled {
			return ev, ok
		}
		// A real line starts at i: split fields in place while scanning
		// for the line end. Each field is one tight run over non-delim
		// bytes; classification is a table lookup.
		lineStart := i
		var f [3][]byte
		nf := 0
		refill := false
		for {
			if i == end {
				// Only a clean EOF terminates an unterminated final
				// line; after a read error the line may be truncated
				// mid-token and must not be delivered.
				if s.readErr != nil {
					return Event{}, s.failRead()
				}
				if !s.eof {
					refill = true
				}
				break
			}
			c := buf[i]
			if c == '\n' {
				break
			}
			// c is the first byte of a field.
			j := i + 1
			for j < end && !fieldDelim[buf[j]] {
				j++
			}
			if j == end && !s.eof {
				if s.readErr != nil {
					return Event{}, s.failRead()
				}
				refill = true // the field may continue past the buffer
				break
			}
			if nf < len(f) {
				f[nf] = buf[i:j]
			}
			nf++
			i = j
			for i < end && asciiSpace[buf[i]] {
				i++
			}
		}
		if refill {
			s.fill()
			if s.err != nil {
				return Event{}, false
			}
			continue // rescan the (compacted, extended) line
		}
		s.line++
		lineEnd := i
		if i < end {
			s.pos = i + 1
		} else {
			s.pos = end
		}
		if nf != 3 {
			line := buf[lineStart:lineEnd]
			for len(line) > 0 && isSpace(line[len(line)-1]) {
				line = line[:len(line)-1]
			}
			s.err = fmt.Errorf("trace: line %d: want \"<thread> <op> <operand>\", got %q", s.line, line)
			return Event{}, false
		}
		ev.T = vt.TID(s.threads.idBytes(f[0]))
		// The switch over string(op) compiles to byte comparisons; no
		// allocation takes place.
		switch string(f[1]) {
		case "r":
			ev.Kind, ev.Obj = Read, s.vars.idBytes(f[2])
		case "w":
			ev.Kind, ev.Obj = Write, s.vars.idBytes(f[2])
		case "acq":
			ev.Kind, ev.Obj = Acquire, s.locks.idBytes(f[2])
		case "rel":
			ev.Kind, ev.Obj = Release, s.locks.idBytes(f[2])
		case "fork":
			ev.Kind, ev.Obj = Fork, s.threads.idBytes(f[2])
		case "join":
			ev.Kind, ev.Obj = Join, s.threads.idBytes(f[2])
		default:
			s.err = fmt.Errorf("trace: line %d: unknown operation %q", s.line, f[1])
			return Event{}, false
		}
		return ev, true
	}
}

// fastLine decodes the canonical line shape — "<id> <op> <id>\n" with
// single spaces and canonical identifiers (one lowercase letter plus a
// decimal suffix), exactly what WriteText emits — in one left-to-right
// pass over the buffered bytes, fusing tokenizing, numeric decoding
// and the direct-index interning that idBytes would otherwise re-derive
// per field. i is the first non-space byte of the line. handled
// reports whether the line was consumed; on any shape mismatch, a
// line crossing the buffer end, or an identifier needing the intern
// map, it returns handled == false with the scanner position
// untouched and the general tokenizer takes over (interner state the
// attempt may have advanced is identical to what idBytes would have
// done, so the replay is consistent).
func (s *Scanner) fastLine(i int) (ev Event, ok, handled bool) {
	buf, end := s.buf, s.end
	// Thread identifier: letter + decimal suffix, then one space.
	c0 := buf[i]
	if c0 < 'a' || c0 > 'z' {
		return Event{}, false, false
	}
	j := i + 1
	v0, n0 := 0, 0
	for j < end && buf[j] >= '0' && buf[j] <= '9' {
		v0 = v0*10 + int(buf[j]-'0')
		n0++
		j++
	}
	if n0 == 0 || n0 > 7 || (buf[i+1] == '0' && n0 > 1) || j >= end || buf[j] != ' ' {
		return Event{}, false, false
	}
	j++
	// Operation: fixed spellings, terminated by one space.
	var kind Kind
	var in *intern
	switch {
	case j+1 < end && buf[j+1] == ' ' && buf[j] == 'r':
		kind, in = Read, s.vars
		j += 2
	case j+1 < end && buf[j+1] == ' ' && buf[j] == 'w':
		kind, in = Write, s.vars
		j += 2
	case j+3 < end && buf[j] == 'a' && buf[j+1] == 'c' && buf[j+2] == 'q' && buf[j+3] == ' ':
		kind, in = Acquire, s.locks
		j += 4
	case j+3 < end && buf[j] == 'r' && buf[j+1] == 'e' && buf[j+2] == 'l' && buf[j+3] == ' ':
		kind, in = Release, s.locks
		j += 4
	case j+4 < end && buf[j] == 'f' && buf[j+1] == 'o' && buf[j+2] == 'r' && buf[j+3] == 'k' && buf[j+4] == ' ':
		kind, in = Fork, s.threads
		j += 5
	case j+4 < end && buf[j] == 'j' && buf[j+1] == 'o' && buf[j+2] == 'i' && buf[j+3] == 'n' && buf[j+4] == ' ':
		kind, in = Join, s.threads
		j += 5
	default:
		return Event{}, false, false
	}
	// Operand identifier, then the newline.
	if j >= end {
		return Event{}, false, false
	}
	c2 := buf[j]
	if c2 < 'a' || c2 > 'z' {
		return Event{}, false, false
	}
	d2 := j + 1
	j++
	v2, n2 := 0, 0
	for j < end && buf[j] >= '0' && buf[j] <= '9' {
		v2 = v2*10 + int(buf[j]-'0')
		n2++
		j++
	}
	if n2 == 0 || n2 > 7 || (buf[d2] == '0' && n2 > 1) || j >= end || buf[j] != '\n' {
		return Event{}, false, false
	}
	// Shape verified; commit through the direct-index interns. A miss
	// (foreign prefix letter) falls back to the general path, which
	// resolves the same names through the map.
	t, tok := s.threads.fastID(c0, v0)
	if !tok {
		return Event{}, false, false
	}
	obj, ook := in.fastID(c2, v2)
	if !ook {
		return Event{}, false, false
	}
	s.pos = j + 1
	s.line++
	return Event{T: vt.TID(t), Obj: obj, Kind: kind}, true, true
}

// atEnd reports whether no further input can arrive: the reader hit
// EOF or a deferred read error.
func (s *Scanner) atEnd() bool { return s.eof || s.readErr != nil }

// failRead consumes the remaining (truncated) buffered bytes and
// surfaces the deferred read error; it returns Next's ok value.
func (s *Scanner) failRead() bool {
	s.pos = s.end
	s.err = fmt.Errorf("trace: %w", s.readErr)
	return false
}

// NextBatch fills buf with up to len(buf) events and reports how many
// were decoded. ok is n > 0; a false result means the input is
// exhausted or failed — check Err. Batching amortizes the per-event
// call overhead of the streaming loop; see BatchSource.
func (s *Scanner) NextBatch(buf []Event) (n int, ok bool) {
	for n < len(buf) {
		ev, ok := s.Next()
		if !ok {
			break
		}
		buf[n] = ev
		n++
	}
	return n, n > 0
}

// fill compacts the buffer and reads more input, growing the buffer
// when a single line exceeds it.
func (s *Scanner) fill() {
	if s.pos > 0 {
		s.end = copy(s.buf, s.buf[s.pos:s.end])
		s.pos = 0
	}
	if s.end == len(s.buf) {
		if len(s.buf) >= maxLineSize {
			s.err = fmt.Errorf("trace: line %d: line longer than %d bytes", s.line+1, maxLineSize)
			return
		}
		size := 2 * len(s.buf)
		if size > maxLineSize {
			size = maxLineSize
		}
		grown := make([]byte, size)
		copy(grown, s.buf[:s.end])
		s.buf = grown
	}
	n, err := s.r.Read(s.buf[s.end:])
	s.end += n
	s.consumed += int64(n)
	if n > 0 {
		s.empty = 0
	} else if err == nil {
		if s.empty++; s.empty >= 100 {
			s.err = fmt.Errorf("trace: %w", io.ErrNoProgress)
			return
		}
	}
	switch {
	case err == io.EOF:
		s.eof = true
	case err != nil:
		// Deliver the complete lines already buffered before failing.
		s.readErr = err
	}
}

// asciiSpace marks ASCII whitespace (the byte-level counterpart of the
// unicode.IsSpace set the bufio-era scanner used; trace identifiers
// are ASCII tokens). Newline is a line terminator, not a space, and is
// marked only in fieldDelim, which ends identifier runs.
var asciiSpace, fieldDelim [256]bool

func init() {
	for _, b := range []byte{' ', '\t', '\r', '\v', '\f'} {
		asciiSpace[b] = true
		fieldDelim[b] = true
	}
	fieldDelim['\n'] = true
}

func isSpace(b byte) bool { return asciiSpace[b] }

// Err returns the first error encountered, or nil at clean EOF.
func (s *Scanner) Err() error { return s.err }

// Meta reports the identifier ranges seen so far.
func (s *Scanner) Meta() Meta {
	return Meta{
		Threads: int(s.threads.count),
		Locks:   int(s.locks.count),
		Vars:    int(s.vars.count),
	}
}

// ScanAll drains the scanner into a materialized trace (equivalent to
// ParseText, provided for symmetry).
func (s *Scanner) ScanAll() (*Trace, error) {
	var events []Event
	var buf [256]Event
	for {
		n, ok := s.NextBatch(buf[:])
		events = append(events, buf[:n]...)
		if !ok {
			break
		}
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return &Trace{Meta: s.Meta(), Events: events}, nil
}
