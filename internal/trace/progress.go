package trace

import "time"

// Progress reporting
//
// Heavy-traffic ingestion wants rate metrics without a second counting
// pass: NewProgressSource wraps any event source so the consumer's own
// pulls drive periodic callbacks. Counting happens at batch
// granularity on the consuming goroutine — no extra goroutine, no
// locks, and the wrapper is itself a BatchSource that forwards each
// NextBatch call through ReadBatch, so wrapping changes neither
// results nor batch sizes.

// ProgressFunc receives one progress report: the events consumed so
// far and the observed rate in events/second since the previous report
// (since the start, for the first).
type ProgressFunc func(events uint64, rate float64)

// NewProgressSource wraps src so fn fires whenever roughly `every`
// more events have been consumed (at batch granularity: the callback
// runs at the first batch boundary past each multiple of every).
// every == 0 selects one report per million events. The callback runs
// synchronously on whichever goroutine consumes the source.
func NewProgressSource(src EventSource, every uint64, fn ProgressFunc) EventSource {
	if every == 0 {
		every = 1 << 20
	}
	return &progressSource{src: src, every: every, next: every, fn: fn, last: time.Now()}
}

// progressSource wraps any source, batched or not, and counts the
// events it delivers.
type progressSource struct {
	src         EventSource
	every, next uint64
	count       uint64
	lastCount   uint64
	last        time.Time
	fn          ProgressFunc
}

// tick accounts n consumed events and fires due reports.
func (p *progressSource) tick(n int) {
	p.count += uint64(n)
	if p.count < p.next {
		return
	}
	now := time.Now()
	rate := 0.0
	if dt := now.Sub(p.last).Seconds(); dt > 0 {
		rate = float64(p.count-p.lastCount) / dt
	}
	p.fn(p.count, rate)
	p.lastCount, p.last = p.count, now
	for p.next <= p.count {
		p.next += p.every
	}
}

// StartAt seeds the counters at a resumed run's trace position, so
// reports continue the interrupted run's event numbering and cadence.
// The rate baseline restarts (the time spent before the interruption
// is not this run's).
func (p *progressSource) StartAt(events uint64) {
	p.count, p.lastCount = events, events
	p.next = events - events%p.every + p.every
	p.last = time.Now()
}

func (p *progressSource) Next() (Event, bool) {
	ev, ok := p.src.Next()
	if ok {
		p.tick(1)
	}
	return ev, ok
}

func (p *progressSource) NextBatch(buf []Event) (int, bool) {
	n, ok := ReadBatch(p.src, buf)
	p.tick(n)
	return n, ok
}

func (p *progressSource) Err() error { return p.src.Err() }

var _ BatchSource = (*progressSource)(nil)
