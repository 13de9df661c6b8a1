package main

// Spans for the traced pass. The wrappers here sit around the calls the
// benchmark makes into each layer — scanner and validator NextBatch,
// Session/Client Feed, Result/Finish, checkpoint sink writes — and
// record one span per call. Nothing inside the program is instrumented:
// the wrappers exist only in the traced pass, so the timed reps run the
// plain code paths. Spans stay in memory and are written out when the
// program ends.

import (
	"errors"
	"io"
	"time"

	"treeclock/internal/ckpt"
	"treeclock/internal/trace"
)

// Span names.
const (
	spanRun       = "run"        // root span of one pass
	spanDecode    = "decode"     // one scanner NextBatch
	spanValidate  = "validate"   // one validator NextBatch
	spanFeed      = "feed"       // one Session.Feed or Client.Feed
	spanFinish    = "finish"     // Session.Result or Client.Finish
	spanCkptWrite = "ckpt.write" // checkpoint sink Create to Close
)

// span is one recorded interval. Children run on the goroutine of their
// parent and never overlap one another, so child is the part of the
// span that its direct children cover, and dur-child its self time.
type span struct {
	name   string
	parent int32 // -1 for a root
	root   int32 // the root span of the pass; spans of one pass share it
	start  int64 // ns since the recorder's epoch
	end    int64
	child  int64 // ns covered by direct children
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder holds every span of a run, with the stack of open spans.
type recorder struct {
	epoch  time.Time
	spans  []span
	labels map[int32]string // root id -> "<workload>/<engine>/<pass>"
	open   []int32
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), labels: make(map[int32]string)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span as a child of the innermost open span. On a nil
// recorder begin and end do nothing, so untraced callers share the
// traced code path.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	parent, root := int32(-1), id
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
		root = r.spans[parent].root
	}
	r.spans = append(r.spans, span{name: name, parent: parent, root: root, start: r.now()})
	r.open = append(r.open, id)
	return id
}

// beginRoot opens the root span of one labelled pass.
func (r *recorder) beginRoot(label string) int32 {
	id := r.begin(spanRun)
	r.labels[id] = label
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.end = r.now()
	r.open = r.open[:len(r.open)-1]
	if s.parent >= 0 {
		r.spans[s.parent].child += s.dur()
	}
}

// totals sums, over the spans of one pass with the given name, their
// durations and their self times.
func (r *recorder) totals(root int32, name string) (total, self int64) {
	for i := root; i < int32(len(r.spans)); i++ {
		s := &r.spans[i]
		if s.root == root && s.name == name && i != root {
			total += s.dur()
			self += s.dur() - s.child
		}
	}
	return total, self
}

// rootDur is the duration of a pass; sourceDur is the part of it spent
// inside the source, that is the spans directly under the root that are
// decode or validate calls.
func (r *recorder) rootDur(root int32) int64 { return r.spans[root].dur() }

func (r *recorder) sourceDur(root int32) int64 {
	var d int64
	for i := root + 1; i < int32(len(r.spans)); i++ {
		s := &r.spans[i]
		if s.parent == root && (s.name == spanDecode || s.name == spanValidate) {
			d += s.dur()
		}
	}
	return d
}

// spanJSON is the on-disk form of one span.
type spanJSON struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Root   int32  `json:"root"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// write dumps every span as a JSON array.
func (r *recorder) write(path string) error {
	out := make([]spanJSON, len(r.spans))
	for i, s := range r.spans {
		out[i] = spanJSON{ID: int32(i), Parent: s.parent, Root: s.root, Name: s.name,
			Label: r.labels[int32(i)], Start: s.start, End: s.end}
	}
	return writeJSON(path, out)
}

// tracedSource records a span around every NextBatch of the wrapped
// source. It forwards checkpointing to the wrapped source, so a traced
// chain can run with WithCheckpoint.
type tracedSource struct {
	inner trace.BatchSource
	rec   *recorder
	name  string
}

func (s *tracedSource) NextBatch(buf []trace.Event) (int, bool) {
	id := s.rec.begin(s.name)
	n, ok := s.inner.NextBatch(buf)
	s.rec.end(id)
	return n, ok
}

func (s *tracedSource) Next() (trace.Event, bool) { return s.inner.Next() }
func (s *tracedSource) Err() error                { return s.inner.Err() }

var errNotCheckpointable = errors.New("benchmark: traced source wraps a source without checkpoint support")

func (s *tracedSource) SnapshotSource(e *ckpt.Enc) error {
	cs, ok := s.inner.(trace.CheckpointableSource)
	if !ok {
		return errNotCheckpointable
	}
	return cs.SnapshotSource(e)
}

func (s *tracedSource) RestoreSource(d *ckpt.Dec) error {
	cs, ok := s.inner.(trace.CheckpointableSource)
	if !ok {
		return errNotCheckpointable
	}
	return cs.RestoreSource(d)
}

// memSink keeps checkpoints in memory, recording a ckpt.write span from
// Create to Close and the size of each checkpoint.
type memSink struct {
	rec   *recorder
	buf   []byte
	count int
	bytes int64
}

func (m *memSink) Create(uint64) (io.WriteCloser, error) {
	m.buf = m.buf[:0]
	return &memWriter{sink: m, id: m.rec.begin(spanCkptWrite)}, nil
}

type memWriter struct {
	sink *memSink
	id   int32
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.sink.buf = append(w.sink.buf, p...)
	return len(p), nil
}

func (w *memWriter) Close() error {
	w.sink.rec.end(w.id)
	w.sink.count++
	w.sink.bytes += int64(len(w.sink.buf))
	return nil
}
