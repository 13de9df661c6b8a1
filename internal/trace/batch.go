package trace

// Batched ingestion
//
// Pulling events one interface call at a time puts a dynamic dispatch,
// a bounds check and a branch on the hot path of every event. The
// batch API amortizes all three to once per batch: a BatchSource fills
// a caller-owned buffer with up to len(buf) events per call, and the
// consumer then steps through the buffer with a plain slice loop.
// Every source in this package — the text Scanner, the BinaryScanner,
// the Validator and the in-memory Replayer — implements BatchSource,
// and ReadBatch gathers per-event Next calls into a batch for any
// source that does not, so every consumer (the streaming session's
// driver loop, Runtime.ProcessSource) reads batches through ReadBatch
// alone. Overlapping decoding with analysis is the session's business,
// not a source's: it hands decoded batches to a worker goroutine (see
// internal/parallel).

// DefaultBatchSize is the event-batch capacity used when a consumer
// does not supply its own buffer. 512 events (≈6 KiB) amortizes the
// per-batch overhead to noise while staying comfortably inside L1.
const DefaultBatchSize = 512

// BatchSource is an EventSource that can also deliver events in bulk.
// NextBatch fills buf with up to len(buf) events and reports how many
// were written; ok is n > 0, so a false result means the source is
// exhausted or failed — check Err, exactly as after a false Next. A
// short batch (0 < n < len(buf)) only occurs at the end of input or
// immediately before an error, so consumers may simply loop until
// ok == false. buf must be non-empty: an empty buffer yields (0,
// false) without implying exhaustion (Err stays nil), so a caller
// looping on ok over an empty buffer would silently consume nothing.
type BatchSource interface {
	EventSource
	NextBatch(buf []Event) (n int, ok bool)
}

// ReadBatch fills buf from src, using NextBatch when the source
// supports it and falling back to per-event Next otherwise. The result
// contract matches BatchSource.NextBatch, including the non-empty
// buffer requirement.
func ReadBatch(src EventSource, buf []Event) (n int, ok bool) {
	if bs, ok := src.(BatchSource); ok {
		return bs.NextBatch(buf)
	}
	for n < len(buf) {
		ev, ok := src.Next()
		if !ok {
			break
		}
		buf[n] = ev
		n++
	}
	return n, n > 0
}

// Replayer streams a materialized trace as an EventSource/BatchSource,
// so in-memory traces run through exactly the same engine loop as
// streamed files (and batch delivery is a single copy from the event
// slice). Err is always nil.
type Replayer struct {
	tr  *Trace
	pos int
}

// NewReplayer wraps a materialized trace.
func NewReplayer(tr *Trace) *Replayer { return &Replayer{tr: tr} }

// Next returns the next event of the underlying trace.
func (r *Replayer) Next() (Event, bool) {
	if r.pos >= len(r.tr.Events) {
		return Event{}, false
	}
	ev := r.tr.Events[r.pos]
	r.pos++
	return ev, true
}

// NextBatch copies the next len(buf) events into buf.
func (r *Replayer) NextBatch(buf []Event) (int, bool) {
	n := copy(buf, r.tr.Events[r.pos:])
	r.pos += n
	return n, n > 0
}

// Err always reports nil: a materialized trace cannot fail mid-replay.
func (r *Replayer) Err() error { return nil }

// Meta reports the trace's declared identifier spaces.
func (r *Replayer) Meta() Meta { return r.tr.Meta }

// Reset rewinds the replayer to the start of the trace.
func (r *Replayer) Reset() { r.pos = 0 }

var (
	_ BatchSource = (*Scanner)(nil)
	_ BatchSource = (*BinaryScanner)(nil)
	_ BatchSource = (*Validator)(nil)
	_ BatchSource = (*Replayer)(nil)
)
