package trace

// Source checkpointing and fault injection
//
// Crash-safe analysis needs the decode frontier in the checkpoint, not
// just the engine state: a resumed run must re-read the trace from the
// exact byte the interrupted run had consumed up to, with the interner
// tables (text) or the header bookkeeping (binary) restored so every
// later event decodes to the identical identifiers. Each source
// serializes the *delivered* position — total bytes read from the
// underlying reader minus the bytes still sitting undelivered in the
// window — so buffered-but-unprocessed input is re-read on resume and
// no event is lost or duplicated.
//
// Stateful wrappers (Validator) serialize outermost-first: each writes
// its own section, then delegates inward, and restore consumes the
// sections in the same order. Test scaffolding (CrashSource) writes no
// section at all, so a checkpoint's bytes are independent of fault
// injection and resume never needs the injector.

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"treeclock/internal/ckpt"
	"treeclock/internal/vt"
)

// CheckpointableSource is an EventSource whose decode state can be
// serialized into a checkpoint and later restored over a fresh reader
// of the same input. SnapshotSource appends one or more sections to e;
// RestoreSource consumes exactly those sections from d and, for
// reader-backed sources, skips the already-delivered prefix of the
// fresh underlying reader. On a restore error the source must be
// discarded.
type CheckpointableSource interface {
	EventSource
	SnapshotSource(e *ckpt.Enc) error
	RestoreSource(d *ckpt.Dec) error
}

// discardPrefix skips exactly n already-delivered bytes of r.
func discardPrefix(r io.Reader, n int64) error {
	if n <= 0 {
		return nil
	}
	if m, err := io.CopyN(io.Discard, r, n); err != nil {
		return fmt.Errorf("trace: resume: input ends after %d of %d checkpointed bytes: %w", m, n, err)
	}
	return nil
}

// saveIntern serializes one interner table: the id counter, the
// direct-index prefix, the map-interned names in id order and the
// nonzero slots of the direct-index array. Canonical names live only
// in the array, so the two encodings together are the whole table.
func saveIntern(e *ckpt.Enc, in *intern) {
	e.Int32(in.count)
	e.U8(in.fastPrefix)
	type kv struct {
		name string
		id   int32
	}
	kvs := make([]kv, 0, len(in.ids))
	for name, id := range in.ids {
		kvs = append(kvs, kv{name, id})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].id < kvs[j].id })
	e.Uvarint(uint64(len(kvs)))
	for _, p := range kvs {
		e.Int32(p.id)
		e.String(p.name)
	}
	e.Uvarint(uint64(len(in.fast)))
	nz := 0
	for _, v := range in.fast {
		if v != 0 {
			nz++
		}
	}
	e.Uvarint(uint64(nz))
	for i, v := range in.fast {
		if v != 0 {
			e.Uvarint(uint64(i))
			e.Int32(v)
		}
	}
	// Eviction state (SetInternCap): the recency ticks are behavioural
	// state — they steer future evictions — so a resumed run needs them
	// to evict the same names the uninterrupted run would.
	e.Bool(in.last != nil)
	if in.last != nil {
		e.Uvarint(in.tick)
		e.U64(in.evictions)
		ids := make([]int32, 0, len(in.last))
		for id := range in.last {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		e.Uvarint(uint64(len(ids)))
		for _, id := range ids {
			e.Int32(id)
			e.Uvarint(in.last[id])
		}
	}
}

// loadIntern restores one interner table, validating that every id is
// below the counter and that entries arrive in the strictly increasing
// order saveIntern writes (so a re-saved table is byte-identical).
func loadIntern(d *ckpt.Dec) *intern {
	in := newIntern()
	in.count = d.Int32()
	if d.Err() == nil && in.count < 0 {
		d.Corruptf("negative interner count %d", in.count)
		return nil
	}
	in.fastPrefix = d.U8()
	nm := d.Len(2)
	if d.Err() != nil {
		return nil
	}
	prev := int32(-1)
	for i := 0; i < nm; i++ {
		id := d.Int32()
		name := d.String()
		if d.Err() != nil {
			return nil
		}
		if id <= prev || id >= in.count {
			d.Corruptf("interned id %d out of order (count %d)", id, in.count)
			return nil
		}
		prev = id
		in.ids[name] = id
	}
	nf := d.Count()
	if d.Err() != nil {
		return nil
	}
	if nf > fastLimit {
		d.Corruptf("fast table length %d exceeds %d", nf, fastLimit)
		return nil
	}
	nz := d.Len(2)
	if d.Err() != nil {
		return nil
	}
	if nf > 0 {
		in.fast = make([]int32, nf)
	}
	previ := -1
	for i := 0; i < nz; i++ {
		idx := d.Count()
		v := d.Int32()
		if d.Err() != nil {
			return nil
		}
		if idx <= previ || idx >= nf || v <= 0 || v > in.count {
			d.Corruptf("fast table entry (%d, %d) out of range (len %d, count %d)", idx, v, nf, in.count)
			return nil
		}
		previ = idx
		in.fast[idx] = v
	}
	if d.Bool() {
		in.tick = d.Uvarint()
		in.evictions = d.U64()
		nr := d.Len(2)
		if d.Err() != nil {
			return nil
		}
		if nr != len(in.ids) {
			d.Corruptf("recency table of %d entries for %d interned names", nr, len(in.ids))
			return nil
		}
		in.last = make(map[int32]uint64, nr)
		in.names = make(map[int32]string, nr)
		prev = -1
		for i := 0; i < nr; i++ {
			id := d.Int32()
			tk := d.Uvarint()
			if d.Err() != nil {
				return nil
			}
			if id <= prev || id >= in.count || tk > in.tick {
				d.Corruptf("recency entry (%d, %d) out of range (count %d, tick %d)", id, tk, in.count, in.tick)
				return nil
			}
			prev = id
			in.last[id] = tk
		}
		for name, id := range in.ids {
			if _, ok := in.last[id]; !ok {
				d.Corruptf("interned id %d has no recency entry", id)
				return nil
			}
			in.names[id] = name
		}
	}
	return in
}

// SnapshotSource implements CheckpointableSource: the delivered byte
// offset, the line counter and the three interner tables.
func (s *Scanner) SnapshotSource(e *ckpt.Enc) error {
	e.Begin("scanner")
	e.Svarint(s.consumed - int64(s.end-s.pos))
	e.Uvarint(uint64(s.line))
	saveIntern(e, s.threads)
	saveIntern(e, s.locks)
	saveIntern(e, s.vars)
	e.End()
	return e.Err()
}

// RestoreSource implements CheckpointableSource over a fresh reader of
// the same input: the already-delivered prefix is skipped and decoding
// resumes at the first unconsumed line.
func (s *Scanner) RestoreSource(d *ckpt.Dec) error {
	d.Begin("scanner")
	off := d.Svarint()
	if d.Err() == nil && off < 0 {
		d.Corruptf("negative stream offset %d", off)
	}
	line := d.Uvarint()
	threads := loadIntern(d)
	locks := loadIntern(d)
	vars := loadIntern(d)
	d.End()
	if err := d.Err(); err != nil {
		return err
	}
	// The intern cap is scanner configuration, not checkpoint state: a
	// checkpoint taken with eviction on carries recency tables and must
	// resume with a cap (and vice versa), and the loaded tables inherit
	// the configured cap.
	for _, p := range [...]struct {
		loaded *intern
		cap    int
	}{{threads, s.threads.cap}, {locks, s.locks.cap}, {vars, s.vars.cap}} {
		if (p.loaded.last != nil) != (p.cap > 0) {
			return fmt.Errorf("trace: resume: intern-cap configuration mismatch (checkpoint eviction %v, scanner cap %d): %w",
				p.loaded.last != nil, p.cap, ckpt.ErrCorrupt)
		}
		p.loaded.cap = p.cap
	}
	if err := discardPrefix(s.r, off); err != nil {
		return err
	}
	s.consumed = off
	s.pos, s.end = 0, 0
	s.eof, s.readErr, s.empty, s.err = false, nil, 0, nil
	s.line = int(line)
	s.threads, s.locks, s.vars = threads, locks, vars
	return nil
}

// SnapshotSource implements CheckpointableSource: the delivered byte
// offset (header included) plus the decoded header and event counters.
func (s *BinaryScanner) SnapshotSource(e *ckpt.Enc) error {
	e.Begin("binscanner")
	e.Svarint(s.consumed - int64(s.end-s.pos))
	e.Bool(s.started)
	e.String(s.meta.Name)
	e.Int(s.meta.Threads)
	e.Int(s.meta.Locks)
	e.Int(s.meta.Vars)
	e.U64(s.total)
	e.U64(s.read)
	e.End()
	return e.Err()
}

// RestoreSource implements CheckpointableSource over a fresh reader of
// the same input. The header is restored from the checkpoint, not
// re-read: the skipped prefix already covers its bytes.
func (s *BinaryScanner) RestoreSource(d *ckpt.Dec) error {
	d.Begin("binscanner")
	off := d.Svarint()
	if d.Err() == nil && off < 0 {
		d.Corruptf("negative stream offset %d", off)
	}
	started := d.Bool()
	var meta Meta
	meta.Name = d.String()
	meta.Threads = d.Int()
	meta.Locks = d.Int()
	meta.Vars = d.Int()
	if d.Err() == nil && (meta.Threads < 0 || meta.Locks < 0 || meta.Vars < 0) {
		d.Corruptf("negative header field (%d threads, %d locks, %d vars)", meta.Threads, meta.Locks, meta.Vars)
	}
	total := d.U64()
	read := d.U64()
	if d.Err() == nil && read > total {
		d.Corruptf("read count %d exceeds declared total %d", read, total)
	}
	d.End()
	if err := d.Err(); err != nil {
		return err
	}
	if err := discardPrefix(s.r, off); err != nil {
		return err
	}
	s.consumed = off
	s.pos, s.end = 0, 0
	s.eof, s.rerr, s.err = false, nil, nil
	s.started, s.meta, s.total, s.read = started, meta, total, read
	return nil
}

// SnapshotSource implements CheckpointableSource: the replay cursor.
func (r *Replayer) SnapshotSource(e *ckpt.Enc) error {
	e.Begin("replayer")
	e.Uvarint(uint64(r.pos))
	e.End()
	return e.Err()
}

// RestoreSource implements CheckpointableSource. The Replayer must
// wrap the same trace the checkpointed one did.
func (r *Replayer) RestoreSource(d *ckpt.Dec) error {
	d.Begin("replayer")
	pos := d.Uvarint()
	if d.Err() == nil && pos > uint64(len(r.tr.Events)) {
		d.Corruptf("replay position %d beyond trace length %d", pos, len(r.tr.Events))
	}
	d.End()
	if err := d.Err(); err != nil {
		return err
	}
	r.pos = int(pos)
	return nil
}

// errNotCheckpointable reports a wrapped source without checkpoint
// support.
func errNotCheckpointable(src EventSource) error {
	return fmt.Errorf("trace: source %T does not support checkpointing", src)
}

// SnapshotSource implements CheckpointableSource: the discipline state
// (lock holders, thread lifecycle bits, event index), then the wrapped
// source.
func (v *Validator) SnapshotSource(e *ckpt.Enc) error {
	cs, ok := v.src.(CheckpointableSource)
	if !ok {
		return errNotCheckpointable(v.src)
	}
	e.Begin("validator")
	e.U64(v.idx)
	e.Uvarint(uint64(len(v.holder)))
	for _, h := range v.holder {
		e.Svarint(int64(h))
	}
	e.Uvarint(uint64(len(v.started)))
	for i := range v.started {
		e.Bool(v.started[i])
		e.Bool(v.forked[i])
		e.Bool(v.joined[i])
	}
	e.End()
	if err := e.Err(); err != nil {
		return err
	}
	return cs.SnapshotSource(e)
}

// RestoreSource implements CheckpointableSource.
func (v *Validator) RestoreSource(d *ckpt.Dec) error {
	cs, ok := v.src.(CheckpointableSource)
	if !ok {
		return errNotCheckpointable(v.src)
	}
	d.Begin("validator")
	idx := d.U64()
	nl := d.Len(1)
	if d.Err() != nil {
		return d.Err()
	}
	var holder []vt.TID
	for i := 0; i < nl; i++ {
		h := d.Svarint()
		if d.Err() != nil {
			return d.Err()
		}
		if h != int64(vt.None) && (h < 0 || h >= vt.MaxID) {
			d.Corruptf("lock %d held by out-of-range thread %d", i, h)
			return d.Err()
		}
		holder = append(holder, vt.TID(h))
	}
	nt := d.Len(3)
	if d.Err() != nil {
		return d.Err()
	}
	var started, forked, joined []bool
	if nt > 0 {
		started = make([]bool, nt)
		forked = make([]bool, nt)
		joined = make([]bool, nt)
	}
	for i := 0; i < nt; i++ {
		started[i] = d.Bool()
		forked[i] = d.Bool()
		joined[i] = d.Bool()
	}
	d.End()
	if err := d.Err(); err != nil {
		return err
	}
	if err := cs.RestoreSource(d); err != nil {
		return err
	}
	v.idx, v.holder, v.started, v.forked, v.joined, v.err = idx, holder, started, forked, joined, nil
	return nil
}

// ErrInjectedCrash is the error a CrashSource reports when it cuts the
// stream at its kill point. The crash-equivalence harness treats it as
// the simulated process death.
var ErrInjectedCrash = errors.New("trace: injected crash")

// CrashSource delivers events from src until exactly `after` events
// have passed through, then fails with ErrInjectedCrash — a
// deterministic stand-in for a process dying mid-analysis, used by the
// crash-equivalence harness to kill a run at every batch boundary. It
// delegates checkpointing straight to the wrapped source without a
// section of its own, so checkpoints written under fault injection are
// byte-identical to uninjected ones and resume never involves the
// injector.
type CrashSource struct {
	src       EventSource
	remaining uint64
	killed    bool
}

// NewCrashSource wraps src with a fault injector that cuts the stream
// after exactly `after` delivered events.
func NewCrashSource(src EventSource, after uint64) *CrashSource {
	return &CrashSource{src: src, remaining: after}
}

// Next implements EventSource.
func (c *CrashSource) Next() (Event, bool) {
	if c.killed {
		return Event{}, false
	}
	if c.remaining == 0 {
		c.killed = true
		return Event{}, false
	}
	ev, ok := c.src.Next()
	if ok {
		c.remaining--
	}
	return ev, ok
}

// NextBatch implements BatchSource, truncating the batch that reaches
// the kill point so every counted event is still delivered.
func (c *CrashSource) NextBatch(buf []Event) (int, bool) {
	if c.killed {
		return 0, false
	}
	if c.remaining == 0 {
		c.killed = true
		return 0, false
	}
	if uint64(len(buf)) > c.remaining {
		buf = buf[:c.remaining]
	}
	n, ok := ReadBatch(c.src, buf)
	c.remaining -= uint64(n)
	return n, ok
}

// Err implements EventSource: ErrInjectedCrash once the kill point is
// reached, the wrapped source's error otherwise.
func (c *CrashSource) Err() error {
	if c.killed {
		return ErrInjectedCrash
	}
	return c.src.Err()
}

// SnapshotSource implements CheckpointableSource by pure delegation.
func (c *CrashSource) SnapshotSource(e *ckpt.Enc) error {
	cs, ok := c.src.(CheckpointableSource)
	if !ok {
		return errNotCheckpointable(c.src)
	}
	return cs.SnapshotSource(e)
}

// RestoreSource implements CheckpointableSource by pure delegation.
func (c *CrashSource) RestoreSource(d *ckpt.Dec) error {
	cs, ok := c.src.(CheckpointableSource)
	if !ok {
		return errNotCheckpointable(c.src)
	}
	return cs.RestoreSource(d)
}

// SetInternCap delegates InternCapable to the wrapped source (a no-op
// when it has no interner), so fault-injected runs can bound the
// interner exactly like uninjected ones.
func (c *CrashSource) SetInternCap(n int) {
	if ic, ok := c.src.(InternCapable); ok {
		ic.SetInternCap(n)
	}
}

// InternStats delegates InternCapable to the wrapped source.
func (c *CrashSource) InternStats() (live int, evictions uint64) {
	if ic, ok := c.src.(InternCapable); ok {
		return ic.InternStats()
	}
	return 0, 0
}

var (
	_ CheckpointableSource = (*Scanner)(nil)
	_ CheckpointableSource = (*BinaryScanner)(nil)
	_ CheckpointableSource = (*Replayer)(nil)
	_ CheckpointableSource = (*Validator)(nil)
	_ CheckpointableSource = (*CrashSource)(nil)
	_ BatchSource          = (*CrashSource)(nil)
)
