// The tcraced wire protocol: length-prefixed binary frames over a
// byte stream (TCP or a Unix socket).
//
// A connection opens with a 5-byte preamble — "TCRD" plus a protocol
// version byte — written by the client and verified by the server.
// Every subsequent message is one frame:
//
//	uint32(big-endian payload length) | type byte | payload
//
// The length covers the type byte plus the payload and is bounded by
// maxFrame, so a corrupt or hostile length fails fast instead of
// forcing a giant allocation. Frame types are single bytes: uppercase
// letters flow client → server, lowercase server → client.
//
// Structured payloads — the open request, the final result, position
// notices — reuse the internal/ckpt section format (versioned,
// CRC-checked), so the daemon's wire encoding inherits the same
// defensive decoding as checkpoints and the same save*/load* symmetry
// the ckptsym analyzer checks. Event batches are the hot path and use
// a bare encoding instead: a uvarint count followed by the events in
// the binary trace format's per-event encoding (trace.AppendEvent,
// trace.DecodeEvents), whose decoder also holds kinds and identifiers
// to their bounds. Progress notices are two bare uvarints. Every bare
// uvarint must be minimal, so these frames too have one accepted
// spelling.
package daemon

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"treeclock"
	"treeclock/internal/ckpt"
	"treeclock/internal/trace"
	"treeclock/internal/vt"
)

// connMagic is the connection preamble: protocol magic plus version.
// The version changes with any payload layout, so a mismatched peer
// fails at the preamble rather than inside a payload decoder.
const connMagic = "TCRD\x02"

// maxFrame bounds one frame's payload (type byte included). Event
// frames carry at most a few thousand events, results a bounded
// sample set and one vector per thread; 4 MiB leaves generous
// headroom while keeping a corrupt length harmless.
const maxFrame = 4 << 20

// maxEventsPerFrame bounds the event count of one events frame.
const maxEventsPerFrame = 1 << 20

// Frame types, client → server.
const (
	frameOpen   = 'O' // open (or resume) a session: openSpec payload
	frameEvents = 'E' // one batch of trace events
	frameFinish = 'F' // end of trace: assemble and return the result
	frameDetach = 'D' // checkpoint the session server-side and part
	frameStats  = 'S' // request the daemon statistics snapshot
)

// Frame types, server → client.
const (
	frameOpened   = 'o' // session accepted: position to feed from
	frameProgress = 'p' // periodic events/retained-bytes notice
	frameResult   = 'r' // final StreamResult (terminal)
	frameEvicted  = 'v' // budget eviction: resumable position (terminal)
	frameError    = 'x' // failure, UTF-8 text (terminal)
	frameStatsRep = 's' // statistics snapshot, JSON
	frameDetached = 'd' // detach acknowledged: resumable position (terminal)
)

// writeFrame emits one frame and flushes it.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("daemon: frame %q payload %d exceeds limit %d", typ, len(payload), maxFrame)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame reads one frame, enforcing the size bound.
func readFrame(r *bufio.Reader) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("daemon: frame length %d out of range (max %d)", n, maxFrame)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// openSpec is the session-open request: which engine to run, under
// which options, and whether to resume the identified session from its
// server-side checkpoint. The option subset is exactly what a
// push-mode Session accepts — decode-side options (format, validation,
// interning) stay with the client, which feeds decoded events.
type openSpec struct {
	// ID names the session: the spool checkpoint key and the stats
	// table entry. Sanitized server-side (sessionIDOK).
	ID string
	// Engine is the registry name ("hb-tree", "wcp-vc", ...).
	Engine string
	// Workers selects the sharded runtime when > 1. The count comes off
	// the wire unchecked; treeclock.Open bounds it before building any
	// replica, and the refusal goes back as an error frame.
	Workers int
	// NoAnalysis disables race reporting (timing/metadata only).
	NoAnalysis bool
	// SlotReclaim enables thread-slot reclamation.
	SlotReclaim bool
	// SummaryCap caps retained rule-(a) summary vectors (wcp engines).
	SummaryCap int
	// Resume restores the session from its server-side checkpoint; the
	// opened reply carries the position to re-feed from.
	Resume bool
}

// saveOpen encodes an open request.
func saveOpen(e *ckpt.Enc, spec *openSpec) error {
	e.Header()
	e.Begin("open")
	e.String(spec.ID)
	e.String(spec.Engine)
	e.Int(spec.Workers)
	e.Bool(spec.NoAnalysis)
	e.Bool(spec.SlotReclaim)
	e.Int(spec.SummaryCap)
	e.Bool(spec.Resume)
	e.End()
	return e.Err()
}

// loadOpen decodes an open request.
func loadOpen(d *ckpt.Dec) (*openSpec, error) {
	d.Header()
	d.Begin("open")
	spec := &openSpec{
		ID:          d.String(),
		Engine:      d.String(),
		Workers:     d.Int(),
		NoAnalysis:  d.Bool(),
		SlotReclaim: d.Bool(),
		SummaryCap:  d.Int(),
		Resume:      d.Bool(),
	}
	d.End()
	d.ExpectEOF()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return spec, nil
}

// saveResult encodes a final StreamResult — every field, in
// declaration order, so the daemon's reply is a faithful transcript of
// the library's answer (the differential suite compares these bytes).
func saveResult(e *ckpt.Enc, res *treeclock.StreamResult) error {
	e.Header()
	e.Begin("result")
	e.String(res.Engine)
	e.String(res.Meta.Name)
	e.Int(res.Meta.Threads)
	e.Int(res.Meta.Locks)
	e.Int(res.Meta.Vars)
	e.U64(res.Events)
	e.U64(res.Summary.Total)
	e.U64(res.Summary.WriteWrite)
	e.U64(res.Summary.WriteRead)
	e.U64(res.Summary.ReadWrite)
	e.Int(res.Summary.Vars)
	e.Uvarint(uint64(len(res.Samples)))
	for _, p := range res.Samples {
		e.U8(uint8(p.Kind))
		e.Int32(p.Var)
		e.Int32(int32(p.Prior.T))
		e.Int32(int32(p.Prior.Clk))
		e.Int32(int32(p.Access.T))
		e.Int32(int32(p.Access.Clk))
	}
	e.End()
	e.Begin("timestamps")
	e.Uvarint(uint64(len(res.Timestamps)))
	for _, v := range res.Timestamps {
		e.Uvarint(uint64(len(v)))
		for _, t := range v {
			e.Int32(int32(t))
		}
	}
	e.End()
	e.Begin("mem")
	e.Bool(res.Mem != nil)
	if res.Mem != nil {
		m := res.Mem
		e.Int(m.HistEntries)
		e.Int(m.PeakLockHist)
		e.U64(m.DroppedEntries)
		e.U64(m.RetainedBytes)
		e.Int(m.SummaryVectors)
		e.Int(m.FreeVectors)
		e.U64(m.SummaryEvictions)
		e.Int(m.ThreadSlots)
		e.Int(m.FreeSlots)
		e.U64(m.RetiredSlots)
		e.U64(m.ReusedSlots)
		e.Int(m.InternedNames)
		e.U64(m.InternEvictions)
	}
	e.End()
	return e.Err()
}

// loadResult decodes a StreamResult, reconstructing the exact shape
// the library produces (nil sample slice when empty, per-thread
// timestamp vectors, optional MemStats).
func loadResult(d *ckpt.Dec) (*treeclock.StreamResult, error) {
	d.Header()
	d.Begin("result")
	res := &treeclock.StreamResult{Engine: d.String()}
	res.Meta.Name = d.String()
	res.Meta.Threads = d.Int()
	res.Meta.Locks = d.Int()
	res.Meta.Vars = d.Int()
	res.Events = d.U64()
	res.Summary.Total = d.U64()
	res.Summary.WriteWrite = d.U64()
	res.Summary.WriteRead = d.U64()
	res.Summary.ReadWrite = d.U64()
	res.Summary.Vars = d.Int()
	if n := d.Len(6); n > 0 {
		res.Samples = make([]treeclock.Race, n)
		for i := range res.Samples {
			p := &res.Samples[i]
			p.Kind = treeclock.RaceKind(d.U8())
			p.Var = d.Int32()
			p.Prior.T = vt.TID(d.Int32())
			p.Prior.Clk = vt.Time(d.Int32())
			p.Access.T = vt.TID(d.Int32())
			p.Access.Clk = vt.Time(d.Int32())
		}
	}
	d.End()
	d.Begin("timestamps")
	res.Timestamps = make([]treeclock.Vector, d.Len(1))
	for i := range res.Timestamps {
		v := make(treeclock.Vector, d.Len(1))
		for j := range v {
			v[j] = vt.Time(d.Int32())
		}
		res.Timestamps[i] = v
	}
	d.End()
	d.Begin("mem")
	if d.Bool() {
		m := &treeclock.MemStats{}
		m.HistEntries = d.Int()
		m.PeakLockHist = d.Int()
		m.DroppedEntries = d.U64()
		m.RetainedBytes = d.U64()
		m.SummaryVectors = d.Int()
		m.FreeVectors = d.Int()
		m.SummaryEvictions = d.U64()
		m.ThreadSlots = d.Int()
		m.FreeSlots = d.Int()
		m.RetiredSlots = d.U64()
		m.ReusedSlots = d.U64()
		m.InternedNames = d.Int()
		m.InternEvictions = d.U64()
		res.Mem = m
	}
	d.End()
	d.ExpectEOF()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// savePos encodes a position notice (opened, detached, evicted — the
// reason string is empty except for evictions).
func savePos(e *ckpt.Enc, pos uint64, reason string) error {
	e.Header()
	e.Begin("pos")
	e.U64(pos)
	e.String(reason)
	e.End()
	return e.Err()
}

// loadPos decodes a position notice.
func loadPos(d *ckpt.Dec) (pos uint64, reason string, err error) {
	d.Header()
	d.Begin("pos")
	pos = d.U64()
	reason = d.String()
	d.End()
	d.ExpectEOF()
	return pos, reason, d.Err()
}

// encodeOpen marshals an open request into one frame payload.
func encodeOpen(spec *openSpec) ([]byte, error) {
	var buf bytes.Buffer
	if err := saveOpen(ckpt.NewEnc(&buf), spec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeOpen unmarshals an open request frame payload.
func decodeOpen(payload []byte) (*openSpec, error) {
	return loadOpen(ckpt.NewDec(bytes.NewReader(payload)))
}

// encodeResult marshals a StreamResult into one frame payload.
func encodeResult(res *treeclock.StreamResult) ([]byte, error) {
	var buf bytes.Buffer
	if err := saveResult(ckpt.NewEnc(&buf), res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeResult unmarshals a result frame payload.
func decodeResult(payload []byte) (*treeclock.StreamResult, error) {
	return loadResult(ckpt.NewDec(bytes.NewReader(payload)))
}

// encodePos marshals a position notice into one frame payload.
func encodePos(pos uint64, reason string) ([]byte, error) {
	var buf bytes.Buffer
	if err := savePos(ckpt.NewEnc(&buf), pos, reason); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodePos unmarshals a position notice frame payload.
func decodePos(payload []byte) (uint64, string, error) {
	return loadPos(ckpt.NewDec(bytes.NewReader(payload)))
}

// uvarint decodes the minimal uvarint at the front of b and returns it
// with the rest of b.
func uvarint(b []byte) (v uint64, rest []byte, ok bool) {
	v, k := binary.Uvarint(b)
	if k <= 0 || !ckpt.Minimal(b, k) {
		return 0, nil, false
	}
	return v, b[k:], true
}

// encodeEvents appends an event batch: the uvarint count, then each
// event as trace.AppendEvent encodes it.
func encodeEvents(dst []byte, events []trace.Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	for _, ev := range events {
		dst = trace.AppendEvent(dst, ev)
	}
	return dst
}

// decodeEvents decodes an events frame payload into buf (grown as
// needed). trace.DecodeEvents validates each event's kind, spelling
// and identifiers; the frame must hold exactly the counted events.
func decodeEvents(payload []byte, buf []trace.Event) ([]trace.Event, error) {
	n, payload, ok := uvarint(payload)
	if !ok {
		return nil, fmt.Errorf("daemon: events frame: bad count")
	}
	if n > maxEventsPerFrame {
		return nil, fmt.Errorf("daemon: events frame: count %d exceeds limit %d", n, maxEventsPerFrame)
	}
	if n > uint64(len(payload))/3 { // an event takes at least 3 bytes
		return nil, fmt.Errorf("daemon: events frame: count %d exceeds payload", n)
	}
	if uint64(cap(buf)) < n {
		buf = make([]trace.Event, n)
	}
	buf = buf[:n]
	got, used, err := trace.DecodeEvents(buf, payload)
	switch {
	case err != nil:
		return nil, fmt.Errorf("daemon: events frame: event %d: %w", got, err)
	case got < len(buf):
		return nil, fmt.Errorf("daemon: events frame: truncated at event %d of %d", got, n)
	case used < len(payload):
		return nil, fmt.Errorf("daemon: events frame: %d trailing bytes", len(payload)-used)
	}
	return buf, nil
}
