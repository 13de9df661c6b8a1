package daemon

// Daemon differential and fault tests: every session served over the
// wire must produce byte-identical results to a library run of the
// same events, including across daemon kills and budget evictions.
// All scheduling (throttle, rate windows, uptime) runs on a fake
// injected clock, so the suite is deterministic and sleeps never
// block real time.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"treeclock"
	"treeclock/internal/trace"
	"treeclock/internal/vt"
)

// fakeClock is the injected deterministic clock: Sleep advances time
// instead of blocking.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// startDaemon builds and serves a daemon on a loopback TCP port.
func startDaemon(t *testing.T, spool string, mod func(*Config)) (*Server, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	cfg := Config{
		Network:       "tcp",
		Addr:          "127.0.0.1:0",
		SpoolDir:      spool,
		ProgressEvery: 256,
		MemCheckEvery: 64,
		Now:           clk.Now,
		Sleep:         clk.Sleep,
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, clk
}

// daemonTrace is the shared corpus: mixed sync/access workload large
// enough for multiple progress, memory-sample and checkpoint cadences.
func daemonTrace() *treeclock.Trace {
	return treeclock.GenerateMixed(treeclock.GenConfig{
		Threads: 6, Locks: 4, Vars: 24, Events: 2200, SyncFrac: 0.3, Seed: 17,
	})
}

// libraryRun produces the ground-truth StreamResult for a corpus.
func libraryRun(t *testing.T, engine string, workers int, tr *treeclock.Trace) *treeclock.StreamResult {
	t.Helper()
	var opts []treeclock.StreamOption
	if workers > 1 { // the daemon shards only above one worker
		opts = append(opts, treeclock.WithWorkers(workers))
	}
	res, err := treeclock.RunStreamSource(engine, treeclock.NewTraceReplayer(tr), opts...)
	if err != nil {
		t.Fatalf("library run %s/%d: %v", engine, workers, err)
	}
	return res
}

// resultBytes is the byte-identity comparator: the canonical wire
// encoding of a StreamResult.
func resultBytes(t *testing.T, res *treeclock.StreamResult) []byte {
	t.Helper()
	b, err := encodeResult(res)
	if err != nil {
		t.Fatalf("encodeResult: %v", err)
	}
	return b
}

// feedRangeErr ships events[from:to] in chunks.
func feedRangeErr(c *Client, events []trace.Event, from, to uint64, chunk int) error {
	for i := from; i < to; i += uint64(chunk) {
		end := i + uint64(chunk)
		if end > to {
			end = to
		}
		if err := c.Feed(events[i:end]); err != nil {
			return fmt.Errorf("Feed at %d: %w", i, err)
		}
	}
	return nil
}

// feedRange is feedRangeErr for the test goroutine.
func feedRange(t *testing.T, c *Client, events []trace.Event, from, to uint64, chunk int) {
	t.Helper()
	if err := feedRangeErr(c, events, from, to, chunk); err != nil {
		t.Fatal(err)
	}
}

func TestProtoRoundTrip(t *testing.T) {
	spec := &openSpec{
		ID: "s-1.a_b", Engine: "wcp-tree", Workers: 3,
		NoAnalysis: false, SlotReclaim: true, SummaryCap: 7, Resume: true,
	}
	payload, err := encodeOpen(spec)
	if err != nil {
		t.Fatalf("encodeOpen: %v", err)
	}
	got, err := decodeOpen(payload)
	if err != nil {
		t.Fatalf("decodeOpen: %v", err)
	}
	if !reflect.DeepEqual(spec, got) {
		t.Fatalf("open round trip: %+v != %+v", got, spec)
	}

	res := &treeclock.StreamResult{
		Engine: "shb-vc",
		Meta:   treeclock.Meta{Name: "trace", Threads: 3, Locks: 2, Vars: 5},
		Events: 4242,
		Summary: treeclock.RaceSummary{
			Total: 9, WriteWrite: 4, WriteRead: 3, ReadWrite: 2, Vars: 2,
		},
		Samples: []treeclock.Race{
			{Kind: treeclock.WriteReadRace, Var: 4, Prior: treeclock.Epoch{T: 1, Clk: 7}, Access: treeclock.Epoch{T: 2, Clk: 3}},
		},
		Timestamps: []treeclock.Vector{{1, 2, 3}, {0, 5, 0}, {}},
		Mem: &treeclock.MemStats{
			HistEntries: 1, PeakLockHist: 2, DroppedEntries: 3, RetainedBytes: 4,
			SummaryVectors: 5, FreeVectors: 6, SummaryEvictions: 7, ThreadSlots: 8,
			FreeSlots: 9, RetiredSlots: 10, ReusedSlots: 11, InternedNames: 12, InternEvictions: 13,
		},
	}
	rb := resultBytes(t, res)
	back, err := decodeResult(rb)
	if err != nil {
		t.Fatalf("decodeResult: %v", err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatalf("result round trip:\n got %+v\nwant %+v", back, res)
	}
	if !bytes.Equal(rb, resultBytes(t, back)) {
		t.Fatalf("result re-encoding is not canonical")
	}
	// A corrupt payload must fail decode, never panic.
	for flip := 0; flip < len(rb); flip += 11 {
		bad := append([]byte(nil), rb...)
		bad[flip] ^= 0x40
		if _, err := decodeResult(bad); err == nil && bytes.Equal(bad, rb) == false {
			t.Fatalf("decodeResult accepted corrupt payload (flip at %d)", flip)
		}
	}

	pb, err := encodePos(77, "over budget")
	if err != nil {
		t.Fatalf("encodePos: %v", err)
	}
	pos, reason, err := decodePos(pb)
	if err != nil || pos != 77 || reason != "over budget" {
		t.Fatalf("pos round trip: %d %q %v", pos, reason, err)
	}

	evs := []trace.Event{
		{T: 0, Obj: 3, Kind: trace.Read},
		{T: 5, Obj: 0, Kind: trace.Write},
		{T: 2, Obj: 1, Kind: trace.Acquire},
		{T: 2, Obj: 1, Kind: trace.Release},
		{T: 0, Obj: 7, Kind: trace.Fork},
		{T: 0, Obj: 7, Kind: trace.Join},
	}
	enc := encodeEvents(nil, evs)
	dec, err := decodeEvents(enc, nil)
	if err != nil {
		t.Fatalf("decodeEvents: %v", err)
	}
	if !reflect.DeepEqual(evs, dec) {
		t.Fatalf("events round trip: %v != %v", dec, evs)
	}
	if _, err := decodeEvents(enc[:len(enc)-1], nil); err == nil {
		t.Fatalf("decodeEvents accepted truncated payload")
	}
	bad := append([]byte(nil), enc...)
	bad[1] = 0xff // first event kind out of range
	if _, err := decodeEvents(bad, nil); err == nil {
		t.Fatalf("decodeEvents accepted bad event kind")
	}
	// Identifiers outside [0, vt.MaxID): operand -1 goes on the wire as
	// 0xFFFFFFFF, which once reached the engine as -1.
	for _, ev := range []trace.Event{{T: 0, Obj: -1, Kind: trace.Read}, {T: vt.MaxID, Obj: 0, Kind: trace.Write}} {
		if _, err := decodeEvents(encodeEvents(nil, []trace.Event{ev}), nil); err == nil {
			t.Fatalf("decodeEvents accepted out-of-range event %v", ev)
		}
	}
	if !bytes.Equal(encodeEvents(nil, []trace.Event{{T: 0, Obj: -1, Kind: trace.Read}}), []byte{1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) {
		t.Fatalf("operand -1 is not sent as 0xFFFFFFFF")
	}

	prog := encodeProgress(1<<40, 300)
	if e, r, err := decodeProgress(prog); err != nil || e != 1<<40 || r != 300 {
		t.Fatalf("progress round trip: %d %d %v", e, r, err)
	}
	for _, bad := range [][]byte{prog[:len(prog)-1], append(bytes.Clone(prog), 0), {0x80, 0x00, 0x00}} {
		if _, _, err := decodeProgress(bad); err == nil {
			t.Fatalf("decodeProgress accepted % x", bad)
		}
	}
}

// TestDaemonMatchesLibrary is the differential pin: every engine, in
// sequential and sharded form, served concurrently over one daemon,
// must report byte-identically to the library.
func TestDaemonMatchesLibrary(t *testing.T) {
	srv, _ := startDaemon(t, t.TempDir(), nil)
	addr := srv.Addr().String()
	tr := daemonTrace()

	type variant struct {
		engine  string
		workers int
	}
	var variants []variant
	for _, engine := range treeclock.Engines() {
		variants = append(variants, variant{engine, 1}, variant{engine, 2})
	}

	var wg sync.WaitGroup
	for i, v := range variants {
		wg.Add(1)
		go func(i int, v variant) {
			defer wg.Done()
			want := resultBytes(t, libraryRun(t, v.engine, v.workers, tr))
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("%s/%d: dial: %v", v.engine, v.workers, err)
				return
			}
			defer c.Close()
			opts := []OpenOption{}
			if v.workers > 1 {
				opts = append(opts, OpenWorkers(v.workers))
			}
			pos, err := c.Open(fmt.Sprintf("match-%d", i), v.engine, opts...)
			if err != nil {
				t.Errorf("%s/%d: open: %v", v.engine, v.workers, err)
				return
			}
			if pos != 0 {
				t.Errorf("%s/%d: fresh session opened at %d", v.engine, v.workers, pos)
				return
			}
			if err := feedRangeErr(c, tr.Events, 0, uint64(len(tr.Events)), 173); err != nil {
				t.Errorf("%s/%d: %v", v.engine, v.workers, err)
				return
			}
			res, err := c.Finish()
			if err != nil {
				t.Errorf("%s/%d: finish: %v", v.engine, v.workers, err)
				return
			}
			if got := resultBytes(t, res); !bytes.Equal(got, want) {
				t.Errorf("%s/%d: daemon result diverges from library run", v.engine, v.workers)
			}
		}(i, v)
	}
	wg.Wait()
}

// TestDaemonRestartEquivalence is the fault-injection pin: kill the
// daemon abruptly mid-stream, restart it over the same spool, resume,
// and require the final report — races, timestamps, MemStats — to be
// byte-identical to an uninterrupted library run.
func TestDaemonRestartEquivalence(t *testing.T) {
	tr := daemonTrace()
	n := uint64(len(tr.Events))
	engines := []string{"hb-tree", "shb-vc", "maz-tree", "wcp-vc"}
	for _, engine := range engines {
		for _, workers := range []int{1, 2} {
			for _, frac := range []uint64{3, 2} { // kill near n/3 and n/2
				killAt := n / frac
				name := fmt.Sprintf("%s/w%d/kill%d", engine, workers, killAt)
				t.Run(name, func(t *testing.T) {
					spool := t.TempDir()
					want := resultBytes(t, libraryRun(t, engine, workers, tr))
					srv, _ := startDaemon(t, spool, func(c *Config) { c.CheckpointEvery = 500 })

					c, err := Dial(srv.Addr().String())
					if err != nil {
						t.Fatalf("dial: %v", err)
					}
					reached := make(chan struct{})
					var once sync.Once
					c.OnProgress(func(events, _ uint64) {
						if events >= killAt {
							once.Do(func() { close(reached) })
						}
					})
					opts := []OpenOption{}
					if workers > 1 {
						opts = append(opts, OpenWorkers(workers))
					}
					if _, err := c.Open("restart", engine, opts...); err != nil {
						t.Fatalf("open: %v", err)
					}
					// Feed until the daemon has demonstrably processed the
					// kill point (it reads from the socket asynchronously,
					// so wait for its progress frames, not our writes),
					// then kill it.
					var i uint64
				feeding:
					for i < n {
						end := i + 97
						if end > n {
							end = n
						}
						if err := c.Feed(tr.Events[i:end]); err != nil {
							t.Fatalf("feed at %d: %v", i, err)
						}
						i = end
						select {
						case <-reached:
							break feeding
						default:
						}
					}
					select {
					case <-reached:
					case <-time.After(10 * time.Second):
						t.Fatalf("daemon never reported progress past %d", killAt)
					}
					srv.Close() // abrupt: severs the connection mid-stream
					c.Close()

					srv2, _ := startDaemon(t, spool, func(c *Config) { c.CheckpointEvery = 500 })
					c2, err := Dial(srv2.Addr().String())
					if err != nil {
						t.Fatalf("dial 2: %v", err)
					}
					defer c2.Close()
					pos, err := c2.Open("restart", engine, append(opts, OpenResume())...)
					if err != nil {
						t.Fatalf("resume open: %v", err)
					}
					if pos == 0 || pos > n {
						t.Fatalf("resumed at %d of %d events", pos, n)
					}
					feedRange(t, c2, tr.Events, pos, n, 173)
					res, err := c2.Finish()
					if err != nil {
						t.Fatalf("finish after restart: %v", err)
					}
					if got := resultBytes(t, res); !bytes.Equal(got, want) {
						t.Fatalf("restarted session diverges from uninterrupted library run")
					}
				})
			}
		}
	}
}

// TestDaemonDetachResume covers the graceful hand-off: detach
// checkpoints server-side at exactly the fed frontier, and a resumed
// session finishes byte-identically.
func TestDaemonDetachResume(t *testing.T) {
	tr := daemonTrace()
	n := uint64(len(tr.Events))
	spool := t.TempDir()
	srv, _ := startDaemon(t, spool, nil)
	want := resultBytes(t, libraryRun(t, "wcp-tree", 1, tr))

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c.Open("detach", "wcp-tree"); err != nil {
		t.Fatalf("open: %v", err)
	}
	half := n / 2
	feedRange(t, c, tr.Events, 0, half, 173)
	pos, err := c.Detach()
	if err != nil {
		t.Fatalf("detach: %v", err)
	}
	if pos != half {
		t.Fatalf("detached at %d, fed %d", pos, half)
	}
	c.Close()

	c2, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer c2.Close()
	pos2, err := c2.Open("detach", "wcp-tree", OpenResume())
	if err != nil {
		t.Fatalf("resume open: %v", err)
	}
	if pos2 != half {
		t.Fatalf("resumed at %d, detached at %d", pos2, half)
	}
	feedRange(t, c2, tr.Events, half, n, 173)
	res, err := c2.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if got := resultBytes(t, res); !bytes.Equal(got, want) {
		t.Fatalf("detach/resume session diverges from library run")
	}
	// The finished session's spool checkpoint is gone.
	if _, err := os.Stat(spool + "/detach.ckpt"); !os.IsNotExist(err) {
		t.Fatalf("finished session left spool checkpoint behind (stat err %v)", err)
	}
}

// TestDaemonEviction covers the retained-bytes budget: a wcp session
// over budget is evicted with a resumable checkpoint, and resuming on
// an unbudgeted daemon completes byte-identically.
func TestDaemonEviction(t *testing.T) {
	tr := daemonTrace()
	n := uint64(len(tr.Events))
	spool := t.TempDir()
	want := resultBytes(t, libraryRun(t, "wcp-tree", 1, tr))

	srv, _ := startDaemon(t, spool, func(c *Config) {
		c.MaxRetainedBytes = 1
		c.MemCheckEvery = 64
	})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c.Open("evicted", "wcp-tree"); err != nil {
		t.Fatalf("open: %v", err)
	}
	// Feed until the eviction severs the stream; the terminal outcome
	// surfaces on Finish.
	for i := uint64(0); i < n; i += 97 {
		end := i + 97
		if end > n {
			end = n
		}
		if c.Feed(tr.Events[i:end]) != nil {
			break
		}
	}
	_, err = c.Finish()
	var ev *EvictedError
	if !errors.As(err, &ev) {
		t.Fatalf("expected EvictedError, got %v", err)
	}
	if ev.Position == 0 || ev.Position > n {
		t.Fatalf("evicted at position %d of %d", ev.Position, n)
	}
	if ev.Reason == "" {
		t.Fatalf("eviction carries no reason")
	}
	c.Close()
	srv.Close()

	srv2, _ := startDaemon(t, spool, nil) // no budget
	c2, err := Dial(srv2.Addr().String())
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer c2.Close()
	pos, err := c2.Open("evicted", "wcp-tree", OpenResume())
	if err != nil {
		t.Fatalf("resume open: %v", err)
	}
	if pos != ev.Position {
		t.Fatalf("resumed at %d, evicted at %d", pos, ev.Position)
	}
	feedRange(t, c2, tr.Events, pos, n, 173)
	res, err := c2.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if got := resultBytes(t, res); !bytes.Equal(got, want) {
		t.Fatalf("evicted/resumed session diverges from library run")
	}
}

// TestDaemonThrottle pins the events/sec budget on the fake clock: a
// session feeding far over rate must accumulate throttle sleeps.
func TestDaemonThrottle(t *testing.T) {
	tr := daemonTrace()
	srv, clk := startDaemon(t, t.TempDir(), func(c *Config) {
		c.MaxEventsPerSec = 1000
	})
	base := clk.Now()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Open("throttled", "hb-tree"); err != nil {
		t.Fatalf("open: %v", err)
	}
	feedRange(t, c, tr.Events, 0, uint64(len(tr.Events)), 173)
	if _, err := c.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	// 2200 events at 1000/sec with a one-second initial burst needs at
	// least ~1.2s of injected sleep.
	if advanced := clk.Now().Sub(base); advanced < time.Second {
		t.Fatalf("throttle advanced the clock only %v for %d events at 1000/sec", advanced, len(tr.Events))
	}
}

// TestDaemonStats covers the live endpoint: session table, per-engine
// occupancy and lifetime counters.
func TestDaemonStats(t *testing.T) {
	tr := daemonTrace()
	srv, _ := startDaemon(t, t.TempDir(), nil)
	addr := srv.Addr().String()

	c1, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c1.Close()
	if _, err := c1.Open("stats-a", "hb-tree"); err != nil {
		t.Fatalf("open a: %v", err)
	}
	c2, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c2.Close()
	if _, err := c2.Open("stats-b", "wcp-vc", OpenWorkers(2)); err != nil {
		t.Fatalf("open b: %v", err)
	}

	cs, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial stats: %v", err)
	}
	st, err := cs.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.ActiveSessions != 2 || st.SessionsOpened != 2 {
		t.Fatalf("active=%d opened=%d, want 2/2", st.ActiveSessions, st.SessionsOpened)
	}
	if len(st.Sessions) != 2 || st.Sessions[0].ID != "stats-a" || st.Sessions[1].ID != "stats-b" {
		t.Fatalf("session table %+v not sorted [stats-a stats-b]", st.Sessions)
	}
	if st.Sessions[1].Engine != "wcp-vc" || st.Sessions[1].Workers != 2 {
		t.Fatalf("session row %+v lost engine/workers", st.Sessions[1])
	}
	if len(st.Engines) != 2 || st.Engines[0].Engine != "hb-tree" || st.Engines[1].Engine != "wcp-vc" {
		t.Fatalf("occupancy %+v not sorted by engine", st.Engines)
	}
	cs.Close()

	var races uint64
	for i, c := range []*Client{c1, c2} {
		feedRange(t, c, tr.Events, 0, uint64(len(tr.Events)), 173)
		res, err := c.Finish()
		if err != nil {
			t.Fatalf("finish %d: %v", i, err)
		}
		races += res.Summary.Total
	}

	cs2, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial stats 2: %v", err)
	}
	defer cs2.Close()
	st2, err := cs2.Stats()
	if err != nil {
		t.Fatalf("stats 2: %v", err)
	}
	if st2.ActiveSessions != 0 || st2.SessionsFinished != 2 {
		t.Fatalf("after finish: active=%d finished=%d", st2.ActiveSessions, st2.SessionsFinished)
	}
	if st2.EventsTotal != 2*uint64(len(tr.Events)) {
		t.Fatalf("events total %d, want %d", st2.EventsTotal, 2*len(tr.Events))
	}
	if st2.RacesTotal != races {
		t.Fatalf("races total %d, want %d", st2.RacesTotal, races)
	}
}

// TestDaemonTeardownBeforeTerminalFrame pins the session-end order: the
// daemon releases the id, records the outcome and removes a finished
// spool before it writes the terminal frame. The hook stalls the daemon
// between those two steps, so a reversed order would leave the session
// live at exactly the moment the client acts on the frame.
func TestDaemonTeardownBeforeTerminalFrame(t *testing.T) {
	afterTeardown = func() { time.Sleep(20 * time.Millisecond) }
	t.Cleanup(func() { afterTeardown = nil }) // runs after the daemon's Close
	tr := daemonTrace()
	n := uint64(len(tr.Events))
	spool := t.TempDir()
	srv, _ := startDaemon(t, spool, nil)
	addr := srv.Addr().String()
	stats := func() *Stats {
		t.Helper()
		c, err := Dial(addr)
		if err != nil {
			t.Fatalf("dial stats: %v", err)
		}
		defer c.Close()
		st, err := c.Stats()
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		return st
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c.Open("hook", "hb-tree"); err != nil {
		t.Fatalf("open: %v", err)
	}
	feedRange(t, c, tr.Events, 0, n/2, 173)
	pos, err := c.Detach()
	if err != nil {
		t.Fatalf("detach: %v", err)
	}
	if st := stats(); st.ActiveSessions != 0 || st.SessionsDetached != 1 {
		t.Fatalf("right after the detach ack: active=%d detached=%d, want 0/1", st.ActiveSessions, st.SessionsDetached)
	}
	c.Close()

	c2, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer c2.Close()
	if _, err := c2.Open("hook", "hb-tree", OpenResume()); err != nil {
		t.Fatalf("resume right after the detach ack: %v", err)
	}
	feedRange(t, c2, tr.Events, pos, n, 173)
	if _, err := c2.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if st := stats(); st.ActiveSessions != 0 || st.SessionsFinished != 1 {
		t.Fatalf("right after the result: active=%d finished=%d, want 0/1", st.ActiveSessions, st.SessionsFinished)
	}
	if _, err := os.Stat(spool + "/hook.ckpt"); !os.IsNotExist(err) {
		t.Fatalf("spool checkpoint still present when the result arrived (stat err %v)", err)
	}
}

// TestDaemonAdmission covers the bounded pool: with one slot, a second
// session waits for the first to end instead of failing.
func TestDaemonAdmission(t *testing.T) {
	tr := daemonTrace()
	srv, _ := startDaemon(t, t.TempDir(), func(c *Config) { c.MaxSessions = 1 })
	addr := srv.Addr().String()

	c1, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c1.Open("slot-1", "hb-vc"); err != nil {
		t.Fatalf("open 1: %v", err)
	}
	feedRange(t, c1, tr.Events, 0, 500, 173)

	done := make(chan error, 1)
	go func() {
		c2, err := Dial(addr)
		if err != nil {
			done <- err
			return
		}
		defer c2.Close()
		if _, err := c2.Open("slot-2", "hb-vc"); err != nil {
			done <- err
			return
		}
		if err := feedRangeErr(c2, tr.Events, 0, 500, 173); err != nil {
			done <- err
			return
		}
		_, err = c2.Finish()
		done <- err
	}()

	// Let the second open reach the admission queue, then free the slot.
	time.Sleep(50 * time.Millisecond)
	feedRange(t, c1, tr.Events, 500, uint64(len(tr.Events)), 173)
	if _, err := c1.Finish(); err != nil {
		t.Fatalf("finish 1: %v", err)
	}
	c1.Close()
	if err := <-done; err != nil {
		t.Fatalf("queued session failed: %v", err)
	}
}

// TestDaemonRejects covers the error surfaces: bad and duplicate
// session ids, unknown engines, resume without a checkpoint, stats on
// a session connection.
func TestDaemonRejects(t *testing.T) {
	srv, _ := startDaemon(t, t.TempDir(), nil)
	addr := srv.Addr().String()

	open := func(id, engine string, opts ...OpenOption) error {
		c, err := Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		_, err = c.Open(id, engine, opts...)
		return err
	}

	for _, id := range []string{"", ".hidden", "-flag", "a/b", "../escape", "x y"} {
		if err := open(id, "hb-tree"); err == nil {
			t.Errorf("id %q was accepted", id)
		}
	}
	if err := open("ok", "no-such-engine"); err == nil || !bytes.Contains([]byte(err.Error()), []byte("unknown engine")) {
		t.Errorf("unknown engine error %v", err)
	}
	if err := open("fresh", "hb-tree", OpenResume()); err == nil {
		t.Errorf("resume without a spooled checkpoint was accepted")
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Open("dup", "hb-tree"); err != nil {
		t.Fatalf("open dup: %v", err)
	}
	if err := open("dup", "hb-tree"); err == nil || !bytes.Contains([]byte(err.Error()), []byte("already active")) {
		t.Errorf("duplicate live session error %v", err)
	}
	if _, err := c.Stats(); err == nil {
		t.Errorf("Stats on a session connection was accepted")
	}
}

// TestDaemonWorkerBound pins that an open frame asking for more
// workers than treeclock.Open accepts gets an error frame, not a
// crashed daemon (building that many replicas panics), and that the
// same server then serves a normal session.
func TestDaemonWorkerBound(t *testing.T) {
	tr := daemonTrace()
	srv, _ := startDaemon(t, t.TempDir(), nil)
	addr := srv.Addr().String()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	_, err = c.Open("huge", "hb-tree", OpenWorkers(1<<62))
	c.Close()
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("exceeds the limit of 256 workers")) {
		t.Fatalf("open with 1<<62 workers: err = %v, want the worker-bound error", err)
	}

	want := resultBytes(t, libraryRun(t, "hb-tree", 2, tr))
	c, err = Dial(addr)
	if err != nil {
		t.Fatalf("dial after the refused open: %v", err)
	}
	defer c.Close()
	if _, err := c.Open("after", "hb-tree", OpenWorkers(2)); err != nil {
		t.Fatalf("open after the refused open: %v", err)
	}
	feedRange(t, c, tr.Events, 0, uint64(len(tr.Events)), 173)
	res, err := c.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if !bytes.Equal(resultBytes(t, res), want) {
		t.Fatal("session after the refused open diverges from the library run")
	}
}

// TestDaemonEventIDBound pins that an events frame carrying an
// identifier outside [0, vt.MaxID) gets an error frame, not a crashed
// daemon (operand -1 indexes per-variable state at -1), and that the
// same server then serves a normal session.
func TestDaemonEventIDBound(t *testing.T) {
	tr := daemonTrace()
	srv, _ := startDaemon(t, t.TempDir(), nil)
	addr := srv.Addr().String()
	for i, ev := range []trace.Event{{T: 0, Obj: -1, Kind: trace.Read}, {T: vt.MaxID, Obj: 0, Kind: trace.Write}} {
		c, err := Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if _, err := c.Open(fmt.Sprintf("bad-%d", i), "hb-tree"); err != nil {
			t.Fatalf("open: %v", err)
		}
		err = c.Feed([]trace.Event{ev})
		if err == nil {
			_, err = c.Finish()
		}
		c.Close()
		if err == nil || !strings.Contains(err.Error(), "identifier out of range") {
			t.Fatalf("feeding %v: err = %v, want the identifier-bound error", ev, err)
		}
	}

	want := resultBytes(t, libraryRun(t, "hb-tree", 1, tr))
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial after the refused frames: %v", err)
	}
	defer c.Close()
	if _, err := c.Open("after", "hb-tree"); err != nil {
		t.Fatalf("open after the refused frames: %v", err)
	}
	feedRange(t, c, tr.Events, 0, uint64(len(tr.Events)), 173)
	res, err := c.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if !bytes.Equal(resultBytes(t, res), want) {
		t.Fatal("session after the refused frames diverges from the library run")
	}
}

// TestDaemonUnixSocket runs one full session over a Unix socket, with
// the network inferred from the address on both ends.
func TestDaemonUnixSocket(t *testing.T) {
	dir, err := os.MkdirTemp("", "tcd")
	if err != nil {
		t.Fatalf("mkdtemp: %v", err)
	}
	defer os.RemoveAll(dir)
	tr := daemonTrace()
	startDaemon(t, dir, func(c *Config) {
		c.Network = ""
		c.Addr = dir + "/tcraced.sock"
	})
	want := resultBytes(t, libraryRun(t, "maz-vc", 1, tr))
	c, err := Dial(dir + "/tcraced.sock")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Open("unix", "maz-vc"); err != nil {
		t.Fatalf("open: %v", err)
	}
	feedRange(t, c, tr.Events, 0, uint64(len(tr.Events)), 173)
	res, err := c.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if !bytes.Equal(resultBytes(t, res), want) {
		t.Fatalf("unix-socket session diverges from library run")
	}
}

// TestDaemonGoroutineLeaks pins the cleanup paths: after serving
// finished, evicted and severed sessions, closing the daemon returns
// the process to its goroutine baseline.
func TestDaemonGoroutineLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	tr := daemonTrace()
	spool := t.TempDir()
	srv, _ := startDaemon(t, spool, func(c *Config) {
		c.MaxRetainedBytes = 1
		c.MemCheckEvery = 64
	})
	addr := srv.Addr().String()

	// One finished sharded session (hb has no memory accounting, so
	// the budget never fires)...
	c1, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c1.Open("leak-done", "hb-tree", OpenWorkers(2)); err != nil {
		t.Fatalf("open: %v", err)
	}
	feedRange(t, c1, tr.Events, 0, uint64(len(tr.Events)), 173)
	if _, err := c1.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	c1.Close()

	// ...one evicted wcp session...
	c2, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c2.Open("leak-evict", "wcp-tree"); err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := uint64(0); i < uint64(len(tr.Events)); i += 97 {
		end := i + 97
		if end > uint64(len(tr.Events)) {
			end = uint64(len(tr.Events))
		}
		if c2.Feed(tr.Events[i:end]) != nil {
			break
		}
	}
	var ev *EvictedError
	if _, err := c2.Finish(); !errors.As(err, &ev) {
		t.Fatalf("expected eviction, got %v", err)
	}
	c2.Close()

	// ...and one sharded session severed mid-stream.
	c3, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c3.Open("leak-sever", "shb-tree", OpenWorkers(2)); err != nil {
		t.Fatalf("open: %v", err)
	}
	feedRange(t, c3, tr.Events, 0, 700, 173)
	c3.Close()

	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at baseline, %d now", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
