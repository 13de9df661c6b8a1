package trace

// Pipelined decode
//
// Decoding a trace (tokenizing text or uvarint-decoding binary) and
// analyzing it are independent stages that a plain batch loop
// serializes. Pipeline moves decoding into its own goroutine: the
// producer pulls batches from the wrapped source into a small ring of
// recycled buffers and hands them to the consumer through a channel,
// so parsing the next batch overlaps engine work on the current one.
// Batches travel through a single FIFO channel and are consumed in
// order, so the event sequence — and therefore every analysis result —
// is identical to the synchronous path; only wall-clock time changes.
//
// The consumer reads through the ordinary BatchSource interface:
// NextBatch copies events out of the current ring buffer and returns
// that buffer to the decode stage the moment its last event has been
// copied, so the producer can refill it while the consumer analyzes
// the copy. One copy per batch (6 KiB at the default size) buys a
// single source contract for every consumer.

// Pipeline wraps an EventSource with an asynchronous decode stage. It
// implements BatchSource and the plain EventSource interface. A
// Pipeline must be Closed if the consumer abandons it before
// exhaustion, or the decode goroutine leaks; draining it to ok ==
// false shuts the producer down on its own, and Close is then a no-op.
type Pipeline struct {
	src     EventSource
	batches chan []Event  // decoded batches, in trace order
	free    chan []Event  // recycled buffers
	stop    chan struct{} // closed by Close to cancel the producer
	done    chan struct{} // closed by the producer on exit
	srcErr  error         // written by the producer before closing batches
	cur     []Event       // the ring buffer being consumed; nil between buffers
	pos     int           // next undelivered event in cur
	closed  bool
}

// NewPipeline runs src's decoding in a goroutine feeding batches of
// batchSize events through a ring of depth recycled buffers. depth <= 0
// selects 4 buffers, batchSize <= 0 selects DefaultBatchSize. A depth
// of at least 2 is enforced — with a single buffer the stages could
// never overlap.
func NewPipeline(src EventSource, depth, batchSize int) *Pipeline {
	if depth <= 0 {
		depth = 4
	}
	if depth < 2 {
		depth = 2
	}
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	p := &Pipeline{
		src:     src,
		batches: make(chan []Event, depth),
		free:    make(chan []Event, depth),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for i := 0; i < depth; i++ {
		p.free <- make([]Event, batchSize)
	}
	go p.run()
	return p
}

// run is the decode stage: it recycles buffers from the free ring,
// fills each from the source, and ships it downstream in order.
func (p *Pipeline) run() {
	defer close(p.done)
	defer close(p.batches)
	for {
		var buf []Event
		select {
		case buf = <-p.free:
		case <-p.stop:
			return
		}
		n, ok := ReadBatch(p.src, buf[:cap(buf)])
		if n > 0 {
			select {
			case p.batches <- buf[:n]:
			case <-p.stop:
				return
			}
		}
		if !ok {
			// Capture the source's error before close(p.batches) so the
			// channel close orders it before any Err() call.
			p.srcErr = p.src.Err()
			return
		}
	}
}

// fill makes cur[pos] the next undelivered event, blocking on the
// decode stage if it is behind. It reports false once the source is
// exhausted or failed (check Err), and keeps reporting false after.
func (p *Pipeline) fill() bool {
	if p.cur != nil {
		return true
	}
	b, ok := <-p.batches
	if !ok {
		// The producer closes batches before done; waiting here makes
		// srcErr visible to Err the moment exhaustion is reported.
		<-p.done
		return false
	}
	p.cur, p.pos = b, 0
	return true
}

// advance marks n more events of cur delivered and hands cur back to
// the decode stage once all of them are.
func (p *Pipeline) advance(n int) {
	p.pos += n
	if p.pos == len(p.cur) {
		p.free <- p.cur[:cap(p.cur)]
		p.cur, p.pos = nil, 0
	}
}

// NextBatch implements BatchSource: it copies decoded events into buf
// until buf is full or the source ends, so only the final batch is
// short.
func (p *Pipeline) NextBatch(buf []Event) (int, bool) {
	n := 0
	for n < len(buf) && p.fill() {
		c := copy(buf[n:], p.cur[p.pos:])
		p.advance(c)
		n += c
	}
	return n, n > 0
}

// Next is the per-event view.
func (p *Pipeline) Next() (Event, bool) {
	if !p.fill() {
		return Event{}, false
	}
	ev := p.cur[p.pos]
	p.advance(1)
	return ev, true
}

// Err returns the wrapped source's error. It is meaningful once
// NextBatch or Next has reported false (the EventSource contract);
// calling it earlier may miss an error the producer has not hit yet.
func (p *Pipeline) Err() error {
	select {
	case <-p.done:
		return p.srcErr
	default:
		return nil
	}
}

// Close cancels the decode stage and waits for it to exit. It is safe
// to call multiple times and after exhaustion.
//
// The wait covers at most one in-flight ReadBatch: a Go io.Reader
// blocked in Read cannot be interrupted, so if the underlying reader
// may block indefinitely (a socket, a pipe), unblock it — close the
// file or connection, or set a read deadline — to make Close return.
func (p *Pipeline) Close() {
	if !p.closed {
		p.closed = true
		close(p.stop)
	}
	<-p.done
	// Drain any batch the producer shipped before it saw the stop
	// signal, so its buffer is not falsely reported as leaked.
	for range p.batches {
	}
}
