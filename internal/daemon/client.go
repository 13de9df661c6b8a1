package daemon

// Client is the wire-protocol counterpart of the server: it opens one
// session on a daemon, feeds it event batches, and collects the
// terminal outcome (result, eviction, error). tcrace -remote is a thin
// wrapper over it; the differential and restart-equivalence tests use
// it directly.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"

	"treeclock"
	"treeclock/internal/trace"
)

// EvictedError is the terminal outcome of a session the daemon evicted
// over budget: the session's state is checkpointed server-side, and a
// new session with the same id and Resume set continues from Position.
type EvictedError struct {
	// Position is the event frontier the spooled checkpoint covers;
	// resume re-feeds from here.
	Position uint64
	// Reason is the daemon's human-readable eviction cause.
	Reason string
}

func (e *EvictedError) Error() string {
	return fmt.Sprintf("daemon: session evicted at %d events: %s", e.Position, e.Reason)
}

// Client is one daemon connection. Dial, optionally Stats, then Open
// exactly once; Feed in a single goroutine; Finish or Detach to end
// the session; Close always. Not safe for concurrent use.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	progress func(events, retained uint64)
	opened   bool
	scratch  []byte

	term     chan terminal
	outcome  *terminal // first terminal frame, latched
	finalErr error     // sticky terminal error
}

// terminal is a server frame that ends the session (or the read loop).
type terminal struct {
	typ     byte
	payload []byte
	err     error // transport failure, when typ is 0
}

// Dial connects to a daemon. The network is inferred from addr the
// way the server infers its listen network: "unix" when the address
// contains a path separator, "tcp" otherwise.
func Dial(addr string) (*Client, error) {
	network := "tcp"
	if strings.ContainsRune(addr, '/') {
		network = "unix"
	}
	return DialNetwork(network, addr)
}

// DialNetwork connects to a daemon on an explicit network.
func DialNetwork(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if _, err := c.bw.WriteString(connMagic); err != nil {
		conn.Close()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// OnProgress registers a callback for the daemon's progress frames
// (absolute event position, last-sampled retained bytes). It must be
// set before Open; the callback runs on the client's reader goroutine.
func (c *Client) OnProgress(fn func(events, retained uint64)) { c.progress = fn }

// Stats requests the daemon's statistics snapshot. Only valid before
// Open (an open connection is dedicated to its session).
func (c *Client) Stats() (*Stats, error) {
	if c.opened {
		return nil, errors.New("daemon: Stats after Open (use a separate connection)")
	}
	if err := writeFrame(c.bw, frameStats, nil); err != nil {
		return nil, err
	}
	typ, payload, err := readFrame(c.br)
	if err != nil {
		return nil, err
	}
	switch typ {
	case frameStatsRep:
		var st Stats
		if err := json.Unmarshal(payload, &st); err != nil {
			return nil, fmt.Errorf("daemon: bad stats payload: %w", err)
		}
		return &st, nil
	case frameError:
		return nil, errors.New(string(payload))
	default:
		return nil, fmt.Errorf("daemon: unexpected frame %q to stats request", typ)
	}
}

// Open starts (or, with spec.Resume, resumes) the session and returns
// the position to feed from: zero for a fresh session, the spooled
// frontier for a resumed one — the client re-ships events from there.
func (c *Client) Open(id, engine string, opts ...OpenOption) (uint64, error) {
	if c.opened {
		return 0, errors.New("daemon: Open called twice on one connection")
	}
	spec := &openSpec{ID: id, Engine: engine}
	for _, opt := range opts {
		opt(spec)
	}
	payload, err := encodeOpen(spec)
	if err != nil {
		return 0, err
	}
	if err := writeFrame(c.bw, frameOpen, payload); err != nil {
		return 0, err
	}
	typ, reply, err := readFrame(c.br)
	if err != nil {
		return 0, err
	}
	switch typ {
	case frameOpened:
		pos, _, err := decodePos(reply)
		if err != nil {
			return 0, err
		}
		c.opened = true
		c.term = make(chan terminal, 1)
		go c.readLoop()
		return pos, nil
	case frameError:
		return 0, errors.New(string(reply))
	default:
		return 0, fmt.Errorf("daemon: unexpected frame %q to open", typ)
	}
}

// OpenOption tunes an Open request.
type OpenOption func(*openSpec)

// OpenWorkers selects the sharded runtime with n workers.
func OpenWorkers(n int) OpenOption { return func(s *openSpec) { s.Workers = n } }

// OpenNoAnalysis disables race reporting.
func OpenNoAnalysis() OpenOption { return func(s *openSpec) { s.NoAnalysis = true } }

// OpenSlotReclaim enables thread-slot reclamation.
func OpenSlotReclaim() OpenOption { return func(s *openSpec) { s.SlotReclaim = true } }

// OpenSummaryCap caps retained rule-(a) summary vectors (wcp engines).
func OpenSummaryCap(n int) OpenOption { return func(s *openSpec) { s.SummaryCap = n } }

// OpenResume resumes the session from its server-side checkpoint.
func OpenResume() OpenOption { return func(s *openSpec) { s.Resume = true } }

// readLoop demultiplexes server frames after Open: progress frames hit
// the callback; the first terminal frame (result, evicted, error,
// detached) or transport failure parks in c.term and ends the loop.
func (c *Client) readLoop() {
	for {
		typ, payload, err := readFrame(c.br)
		if err != nil {
			c.term <- terminal{err: err}
			return
		}
		switch typ {
		case frameProgress:
			if c.progress != nil {
				if events, retained, err := decodeProgress(payload); err == nil {
					c.progress(events, retained)
				}
			}
		case frameResult, frameEvicted, frameError, frameDetached:
			c.term <- terminal{typ: typ, payload: payload}
			return
		}
	}
}

// await blocks for the terminal frame (latched after first receipt).
func (c *Client) await() *terminal {
	if c.outcome == nil {
		t := <-c.term
		c.outcome = &t
	}
	return c.outcome
}

// terminated reports (without blocking) whether the session already
// ended — an eviction or error can arrive while the client is still
// feeding.
func (c *Client) terminated() bool {
	if c.outcome != nil {
		return true
	}
	select {
	case t := <-c.term:
		c.outcome = &t
		return true
	default:
		return false
	}
}

// finalize maps the latched terminal frame to the session outcome.
func (c *Client) finalize() (*treeclock.StreamResult, error) {
	t := c.await()
	if c.finalErr != nil {
		return nil, c.finalErr
	}
	switch t.typ {
	case frameResult:
		res, err := decodeResult(t.payload)
		if err != nil {
			c.finalErr = err
		}
		return res, err
	case frameEvicted:
		pos, reason, err := decodePos(t.payload)
		if err != nil {
			c.finalErr = err
			return nil, err
		}
		c.finalErr = &EvictedError{Position: pos, Reason: reason}
		return nil, c.finalErr
	case frameError:
		c.finalErr = errors.New(string(t.payload))
		return nil, c.finalErr
	case frameDetached:
		pos, _, err := decodePos(t.payload)
		if err != nil {
			c.finalErr = err
			return nil, err
		}
		c.finalErr = fmt.Errorf("daemon: session detached at %d events", pos)
		return nil, c.finalErr
	default:
		c.finalErr = t.err
		if c.finalErr == nil {
			c.finalErr = errors.New("daemon: connection lost")
		}
		return nil, c.finalErr
	}
}

// Feed ships one batch of events to the session. A batch rejected by
// a terminal condition (eviction, a server error) returns that
// outcome; use errors.As to detect EvictedError and resume later.
func (c *Client) Feed(events []trace.Event) error {
	if !c.opened {
		return errors.New("daemon: Feed before Open")
	}
	if c.terminated() {
		_, err := c.finalize()
		if err == nil {
			err = errors.New("daemon: session already finished")
		}
		return err
	}
	c.scratch = encodeEvents(c.scratch[:0], events)
	if err := writeFrame(c.bw, frameEvents, c.scratch); err != nil {
		// The write side broke; the read side has (or will have) the
		// authoritative terminal frame.
		_, ferr := c.finalize()
		if ferr != nil {
			return ferr
		}
		return err
	}
	return nil
}

// FeedSource drains src into the session in batches, skipping the
// first skip events (the resume protocol: the daemon already has
// them). Returns the number of events shipped.
func (c *Client) FeedSource(src trace.EventSource, skip uint64) (uint64, error) {
	buf := make([]trace.Event, trace.DefaultBatchSize)
	var shipped uint64
	for {
		n, ok := trace.ReadBatch(src, buf)
		if n > 0 {
			batch := buf[:n]
			if skip > 0 {
				if uint64(n) <= skip {
					skip -= uint64(n)
					batch = nil
				} else {
					batch = batch[skip:]
					skip = 0
				}
			}
			if len(batch) > 0 {
				if err := c.Feed(batch); err != nil {
					return shipped, err
				}
				shipped += uint64(len(batch))
			}
		}
		if !ok {
			return shipped, src.Err()
		}
	}
}

// Finish seals the session and returns its StreamResult —
// byte-identical to a library run of the same events.
func (c *Client) Finish() (*treeclock.StreamResult, error) {
	if !c.opened {
		return nil, errors.New("daemon: Finish before Open")
	}
	if !c.terminated() {
		if err := writeFrame(c.bw, frameFinish, nil); err != nil && !c.terminated() {
			return nil, err
		}
	}
	return c.finalize()
}

// Detach asks the daemon to checkpoint the session server-side and
// part; the returned position is the frontier a resumed session
// continues from.
func (c *Client) Detach() (uint64, error) {
	if !c.opened {
		return 0, errors.New("daemon: Detach before Open")
	}
	if !c.terminated() {
		if err := writeFrame(c.bw, frameDetach, nil); err != nil && !c.terminated() {
			return 0, err
		}
	}
	t := c.await()
	if t.typ == frameDetached {
		pos, _, err := decodePos(t.payload)
		return pos, err
	}
	_, err := c.finalize()
	if err == nil {
		err = fmt.Errorf("daemon: unexpected frame %q to detach", t.typ)
	}
	return 0, err
}

// Close severs the connection. An active session gets the server's
// courtesy checkpoint and is resumable. Idempotent.
func (c *Client) Close() error {
	return c.conn.Close()
}
