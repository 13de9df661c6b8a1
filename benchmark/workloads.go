package main

// The five workloads and the code path each one times. A workload is
// made from the seed alone; the engines see only the generated bytes
// (or, for daemon-loopback, the events decoded from them). README.md
// records why each workload was chosen.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"treeclock"
	"treeclock/internal/daemon"
	"treeclock/internal/gen"
	"treeclock/internal/trace"
)

// engines is the interleaving order inside every rep.
var engines = []string{
	"hb-tree", "hb-vc", "shb-tree", "shb-vc",
	"maz-tree", "maz-vc", "wcp-tree", "wcp-vc",
}

// orders lists the partial orders; engine "<o>-tree" and "<o>-vc"
// compute the same order with the two clock data structures.
var orders = []string{"hb", "shb", "maz", "wcp"}

// Input formats of the timed path.
const (
	pathBinary = iota // RunStream(engine, r, StreamBinary())
	pathText          // RunStream(engine, r, StreamValidate())
	pathDaemon        // Client Dial/Open/FeedSource/Finish against a Server
)

type workload struct {
	name   string
	events int // default size
	path   int
	gen    func(events int, seed int64) *trace.Trace
}

// mixedSegments is how many independently seeded ingest-mixed traces
// make up one mixed workload. The generator draws each lock's three
// users from the seed, and that small lock graph alone moves hb-tree's
// throughput by up to 17% from one seed to the next. Averaging eight
// graphs keeps the seed from dominating the run-to-run spread.
const mixedSegments = 8

// mixed is the ingest-mixed generator of tcbench's ingest experiment
// (32 threads, 24 locks, 4,096 variables, 25% sync), as mixedSegments
// concatenated segments. Every segment releases its locks at its end
// and has no fork or join, so the concatenation is well formed.
func mixed(events int, seed int64) *trace.Trace {
	tr := &trace.Trace{Events: make([]trace.Event, 0, events+mixedSegments*32)}
	for i := int64(0); i < mixedSegments; i++ {
		seg := gen.Mixed(gen.Config{
			Name: "ingest-mixed", Threads: 32, Locks: 24, Vars: 4096,
			Events: events / mixedSegments, Seed: seed*mixedSegments + i, SyncFrac: 0.25,
			LockAffinity: 3, Groups: 6, HotFrac: 0.06,
		})
		tr.Meta = seg.Meta
		tr.Events = append(tr.Events, seg.Events...)
	}
	return tr
}

var workloads = []workload{
	{"mixed-bin", 1_000_000, pathBinary, mixed},
	{"mixed-text", 1_000_000, pathText, mixed},
	{"star-k256", 1_000_000, pathBinary, func(n int, seed int64) *trace.Trace { return gen.Star(256, n, seed) }},
	{"single-lock-k256", 100_000, pathBinary, func(n int, seed int64) *trace.Trace { return gen.SingleLock(256, n, seed) }},
	{"daemon-loopback", 1_000_000, pathDaemon, mixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// prepared is one workload after set-up: the decoded trace, its binary
// and (for mixed-text) text encodings, and for daemon-loopback the
// running daemon.
type prepared struct {
	w    workload
	tr   *trace.Trace
	bin  []byte
	text []byte
	d    *loopback
}

// setUp generates and encodes the workload and, for daemon-loopback,
// decodes it once and starts the daemon.
func setUp(w workload, events int, seed int64, dir string) (*prepared, error) {
	p := &prepared{w: w, tr: w.gen(events, seed)}
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, p.tr); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", w.name, err)
	}
	p.bin = bin.Bytes()
	switch w.path {
	case pathText:
		var text bytes.Buffer
		if err := trace.WriteText(&text, p.tr); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", w.name, err)
		}
		p.text = text.Bytes()
	case pathDaemon:
		tr, err := trace.ReadBinary(bytes.NewReader(p.bin))
		if err != nil {
			return nil, fmt.Errorf("decoding %s: %w", w.name, err)
		}
		p.tr = tr
		if p.d, err = startLoopback(dir); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *prepared) close() {
	if p.d != nil {
		p.d.close()
		p.d = nil
	}
}

// run executes one engine over the workload's timed path.
func (p *prepared) run(engine string) (*treeclock.StreamResult, error) {
	switch p.w.path {
	case pathText:
		return treeclock.RunStream(engine, bytes.NewReader(p.text), treeclock.StreamValidate())
	case pathDaemon:
		return p.d.run(engine, treeclock.NewTraceReplayer(p.tr), nil)
	default:
		return p.runBinary(engine)
	}
}

func (p *prepared) runBinary(engine string) (*treeclock.StreamResult, error) {
	return treeclock.RunStream(engine, bytes.NewReader(p.bin), treeclock.StreamBinary())
}

// loopback is an in-process daemon on a unix socket with a temporary
// spool and the default Config.
type loopback struct {
	srv   *daemon.Server
	addr  string
	dir   string
	done  chan error
	count int // session ids are never reused
}

func startLoopback(parent string) (*loopback, error) {
	dir, err := os.MkdirTemp(parent, "daemon-")
	if err != nil {
		return nil, err
	}
	addr := filepath.Join(dir, "d.sock")
	srv, err := daemon.New(daemon.Config{
		Addr:     addr,
		SpoolDir: filepath.Join(dir, "spool"),
		Now:      time.Now,
		Sleep:    time.Sleep,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l := &loopback{srv: srv, addr: addr, dir: dir, done: make(chan error, 1)}
	go func() { l.done <- srv.Serve() }()
	return l, nil
}

func (l *loopback) close() {
	l.srv.Close()
	<-l.done
	os.RemoveAll(l.dir)
}

// run ships src to a new session and returns its result. With a
// recorder, each Client.Feed and the Finish get a span; without one the
// client's own FeedSource loop runs.
func (l *loopback) run(engine string, src trace.BatchSource, rec *recorder) (*treeclock.StreamResult, error) {
	c, err := daemon.Dial(l.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	l.count++
	if _, err := c.Open(fmt.Sprintf("%s-%d", engine, l.count), engine); err != nil {
		return nil, err
	}
	if rec == nil {
		if _, err := c.FeedSource(src, 0); err != nil {
			return nil, err
		}
		return c.Finish()
	}
	buf := make([]trace.Event, trace.DefaultBatchSize)
	for {
		n, ok := src.NextBatch(buf)
		if n > 0 {
			id := rec.begin(spanFeed)
			err := c.Feed(buf[:n])
			rec.end(id)
			if err != nil {
				return nil, err
			}
		}
		if !ok {
			break
		}
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	id := rec.begin(spanFinish)
	res, err := c.Finish()
	rec.end(id)
	return res, err
}
