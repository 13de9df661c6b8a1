package daemon

// The per-connection session loop: admission, open/resume, the feed
// loop with throttling, budget enforcement and progress reporting, and
// the four ways a session ends (finish, detach, eviction, disconnect).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"treeclock"
	"treeclock/internal/trace"
)

// ending is how a session ends: the stats-table disposition
// ("finished", "detached", "evicted", "failed", "disconnected") and the
// terminal frame that tells the client, if any (typ 0: the client is
// gone and nothing is written).
type ending struct {
	outcome string
	typ     byte
	payload []byte
}

// afterTeardown, when set, runs between a session's teardown and the
// write of its terminal frame. Tests stall it to pin that order.
var afterTeardown func()

// serveSession runs one session to completion on its connection.
func (s *Server) serveSession(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, spec *openSpec) {
	fail := func(format string, args ...any) {
		writeFrame(bw, frameError, []byte(fmt.Sprintf(format, args...)))
	}
	if !sessionIDOK(spec.ID) {
		fail("tcraced: bad session id %q (want 1-128 chars of [A-Za-z0-9._-], not starting with '.' or '-')", spec.ID)
		return
	}

	// Admission: wait for a pool slot, aborting if the daemon shuts
	// down first (a severed connection alone would strand the handler
	// in the queue).
	select {
	case s.slots <- struct{}{}:
	default:
		s.cfg.Logf("session %s: waiting for a pool slot", spec.ID)
		select {
		case s.slots <- struct{}{}:
		case <-s.quit:
			return
		}
	}
	defer func() { <-s.slots }()

	// One live session per id: concurrent sessions would race on the
	// spool checkpoint.
	s.mu.Lock()
	if _, dup := s.live[spec.ID]; dup {
		s.mu.Unlock()
		fail("tcraced: session %q is already active", spec.ID)
		return
	}
	s.live[spec.ID] = struct{}{}
	s.mu.Unlock()
	live := true
	release := func() {
		if live {
			s.mu.Lock()
			delete(s.live, spec.ID)
			s.mu.Unlock()
			live = false
		}
	}
	defer release()

	// The session's one spool sink: the checkpoint cadence, detach,
	// eviction and courtesy checkpoints all commit through it.
	sink := treeclock.FileCheckpointSink{Path: filepath.Join(s.cfg.SpoolDir, spec.ID+".ckpt")}
	opts := []treeclock.StreamOption{
		treeclock.WithCheckpoint(s.cfg.CheckpointEvery, sink),
	}
	if spec.Workers > 1 {
		opts = append(opts, treeclock.WithWorkers(spec.Workers))
	}
	if spec.NoAnalysis {
		opts = append(opts, treeclock.StreamNoAnalysis())
	}
	if spec.SlotReclaim {
		opts = append(opts, treeclock.WithSlotReclaim())
	}
	if spec.SummaryCap > 0 {
		opts = append(opts, treeclock.WithSummaryCap(spec.SummaryCap))
	}
	if spec.Resume {
		data, err := os.ReadFile(sink.Path)
		if err != nil {
			fail("tcraced: session %q has no resumable checkpoint: %v", spec.ID, err)
			return
		}
		opts = append(opts, treeclock.ResumeFrom(bytes.NewReader(data)))
	}
	sess, err := treeclock.Open(spec.Engine, opts...)
	if err != nil {
		fail("%v", err)
		return
	}
	defer sess.Close()
	pos, err := sess.Resumed()
	if err != nil {
		fail("%v", err)
		return
	}
	payload, err := encodePos(pos, "")
	if err != nil {
		fail("tcraced: %v", err)
		return
	}
	// Register before acknowledging, so a stats query issued right
	// after the client sees the opened frame finds the session.
	s.stats.sessionOpened(spec, pos)
	if writeFrame(bw, frameOpened, payload) != nil {
		s.stats.sessionClosed(spec.ID, "disconnected")
		return
	}
	s.cfg.Logf("session %s: open engine=%s workers=%d resume=%v pos=%d", spec.ID, spec.Engine, spec.Workers, spec.Resume, pos)
	end := s.feedLoop(br, bw, spec, sess, sink, pos)
	// Tear down before telling the client: one that acts on the terminal
	// frame at once — resuming a detached or evicted id, reading stats
	// after a finish — must find the id free and the outcome recorded.
	release()
	if end.outcome == "finished" {
		// The trace is fully analyzed; the spool frontier has nothing
		// left to resume.
		os.Remove(sink.Path)
	}
	s.stats.sessionClosed(spec.ID, end.outcome)
	s.cfg.Logf("session %s: %s at %d events", spec.ID, end.outcome, sess.Events())
	if afterTeardown != nil {
		afterTeardown()
	}
	if end.typ != 0 {
		if err := writeFrame(bw, end.typ, end.payload); err != nil {
			// The outcome stands: a detached or evicted session resumes
			// from its spool, but a finished one's result is lost with
			// the connection.
			s.cfg.Logf("session %s: %s, but writing the terminal frame failed: %v", spec.ID, end.outcome, err)
		}
	}
}

// feedLoop drives one opened session until a terminal outcome and
// returns it; the caller tears the session down and then writes the
// terminal frame.
func (s *Server) feedLoop(br *bufio.Reader, bw *bufio.Writer, spec *openSpec, sess *treeclock.Session, sink treeclock.CheckpointSink, pos uint64) ending {
	fail := func(format string, args ...any) ending {
		return ending{"failed", frameError, []byte(fmt.Sprintf(format, args...))}
	}
	// courtesy spools the session so the client (or the next daemon)
	// can resume; best-effort on abnormal exits, so a failure is only
	// logged.
	courtesy := func() {
		if err := spool(sink, sess); err != nil {
			s.cfg.Logf("session %s: courtesy checkpoint at %d events failed: %v", spec.ID, sess.Events(), err)
		}
	}

	throttle := newThrottle(s.cfg.MaxEventsPerSec, s.cfg.Now, s.cfg.Sleep)
	nextProgress := nextMultiple(pos, s.cfg.ProgressEvery)
	nextMem := nextMultiple(pos, s.cfg.MemCheckEvery)
	var retained uint64
	var buf []trace.Event

	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			// The client vanished (or the daemon is closing): leave a
			// resumable frontier behind.
			courtesy()
			return ending{outcome: "disconnected"}
		}
		switch typ {
		case frameEvents:
			events, err := decodeEvents(payload, buf)
			if err != nil {
				courtesy()
				return fail("tcraced: %v", err)
			}
			buf = events[:0]
			throttle.pace(len(events))
			if err := sess.Feed(events); err != nil {
				courtesy()
				return fail("%v", err)
			}
			n := sess.Events()
			s.stats.sessionFed(spec.ID, n, uint64(len(events)))
			if n >= nextMem {
				nextMem = nextMultiple(n, s.cfg.MemCheckEvery)
				if ms, ok := sess.Mem(); ok {
					retained = ms.RetainedBytes
					s.stats.sessionRetained(spec.ID, retained)
					if s.cfg.MaxRetainedBytes > 0 && retained > s.cfg.MaxRetainedBytes {
						return s.evict(spec, sess, sink, retained)
					}
				}
			}
			if n >= nextProgress {
				nextProgress = nextMultiple(n, s.cfg.ProgressEvery)
				if writeFrame(bw, frameProgress, encodeProgress(n, retained)) != nil {
					courtesy()
					return ending{outcome: "disconnected"}
				}
			}
		case frameFinish:
			res, err := sess.Result()
			if err != nil {
				courtesy()
				return fail("%v", err)
			}
			payload, err := encodeResult(res)
			if err != nil {
				return fail("tcraced: %v", err)
			}
			s.stats.sessionFinished(spec.ID, res.Summary.Total)
			return ending{"finished", frameResult, payload}
		case frameDetach:
			if err := spool(sink, sess); err != nil {
				return fail("tcraced: spooling detach checkpoint: %v", err)
			}
			payload, err := encodePos(sess.Events(), "")
			if err != nil {
				return fail("tcraced: %v", err)
			}
			return ending{"detached", frameDetached, payload}
		default:
			courtesy()
			return fail("tcraced: unexpected frame %q in session", typ)
		}
	}
}

// evict ends an over-budget session: final checkpoint to the spool,
// then an evicted frame naming the resumable position and the reason,
// and disconnection. The client resumes later (here or on another
// daemon sharing the spool) and re-feeds from the reported position.
func (s *Server) evict(spec *openSpec, sess *treeclock.Session, sink treeclock.CheckpointSink, retained uint64) ending {
	if err := spool(sink, sess); err != nil {
		return ending{"failed", frameError, []byte(fmt.Sprintf("tcraced: spooling eviction checkpoint for session %q: %v", spec.ID, err))}
	}
	reason := fmt.Sprintf("retained %d bytes over budget %d", retained, s.cfg.MaxRetainedBytes)
	payload, perr := encodePos(sess.Events(), reason)
	if perr != nil {
		return ending{outcome: "failed"}
	}
	s.cfg.Logf("session %s: evicted (%s)", spec.ID, reason)
	return ending{"evicted", frameEvicted, payload}
}

// spool snapshots sess and commits the checkpoint through sink — the
// one write path behind the detach, eviction and courtesy checkpoints.
// The error of the snapshot, the write or the commit is returned; a
// sink that keeps its previous checkpoint on failure (as
// FileCheckpointSink does) leaves the last resumable state in place.
func spool(sink treeclock.CheckpointSink, sess *treeclock.Session) error {
	var snap bytes.Buffer
	if err := sess.Snapshot(&snap); err != nil {
		return err
	}
	wc, err := sink.Create(sess.Events())
	if err != nil {
		return err
	}
	if _, err := wc.Write(snap.Bytes()); err != nil {
		wc.Close()
		return err
	}
	return wc.Close()
}

// encodeProgress marshals a progress notice: absolute event position
// and last-sampled retained bytes, bare varints (hot path).
func encodeProgress(events, retained uint64) []byte {
	buf := make([]byte, 0, 20)
	buf = binary.AppendUvarint(buf, events)
	buf = binary.AppendUvarint(buf, retained)
	return buf
}

// decodeProgress unmarshals a progress notice.
func decodeProgress(payload []byte) (events, retained uint64, err error) {
	var k int
	events, k = binary.Uvarint(payload)
	if k <= 0 {
		return 0, 0, fmt.Errorf("daemon: progress frame: bad event count")
	}
	retained, k = binary.Uvarint(payload[k:])
	if k <= 0 {
		return 0, 0, fmt.Errorf("daemon: progress frame: bad retained count")
	}
	return events, retained, nil
}

// nextMultiple returns the first multiple of step strictly above pos
// (pos+1 when step is 0 never happens: callers default step).
func nextMultiple(pos, step uint64) uint64 {
	if step == 0 {
		step = 1
	}
	return (pos/step + 1) * step
}

// throttle is a token bucket over the injected clock: pace(n) spends n
// tokens, sleeping for the refill when the bucket runs dry. The bucket
// caps at one second of budget, so a quiet session can burst briefly
// but sustained feeding converges to the configured rate.
type throttle struct {
	rate   float64 // tokens (events) per second; 0 disables
	tokens float64
	last   time.Time
	now    func() time.Time
	sleep  func(time.Duration)
}

func newThrottle(rate float64, now func() time.Time, sleep func(time.Duration)) *throttle {
	t := &throttle{rate: rate, now: now, sleep: sleep}
	if rate > 0 {
		t.tokens = rate // one second of initial burst
		t.last = now()
	}
	return t
}

// pace blocks until n events fit the budget.
func (t *throttle) pace(n int) {
	if t.rate <= 0 || n <= 0 {
		return
	}
	now := t.now()
	t.tokens += now.Sub(t.last).Seconds() * t.rate
	t.last = now
	if t.tokens > t.rate {
		t.tokens = t.rate
	}
	t.tokens -= float64(n)
	if t.tokens < 0 {
		deficit := -t.tokens / t.rate // seconds until the bucket refills
		t.sleep(time.Duration(deficit * float64(time.Second)))
		t.last = t.now()
		t.tokens = 0
	}
}
