// Command tcrace runs a partial-order race analysis over a trace file
// in a single streaming pass: the trace is never materialized and no
// metadata is needed up front, so arbitrarily large logs are analyzed
// with memory proportional to the live identifier spaces.
//
// Usage:
//
//	tcrace -engine hb-tree trace.txt      # happens-before races, tree clocks
//	tcrace -engine shb-vc < t.txt         # SHB with the vector-clock baseline
//	tcrace -engine maz-tree -format bin t.tr
//	tcrace -engine wcp-tree t.txt         # predictive races (WCP weak order)
//	tcrace -workers 4 big.txt             # shard the analysis across 4 cores
//	tcrace -workers 0 big.txt             # shard across GOMAXPROCS cores
//	tcrace -progress 5000000 huge.txt     # rate reports to stderr
//	tcrace -checkpoint run.ckpt huge.txt  # crash-safe: periodic checkpoints
//	tcrace -resume run.ckpt huge.txt      # continue an interrupted run
//	tcrace -reclaim-slots churny.txt      # bounded clocks under thread churn
//	tcrace -engine wcp-tree -summary-cap 4096 t.txt # age rule-(a) summaries
//	tcrace -intern-cap 100000 month.txt   # evict cold identifier names
//	tcrace -remote 127.0.0.1:7455 t.txt   # run the session in a tcraced daemon
//	tcrace -remote /run/tcraced.sock -session nightly -resume-session t.txt
//	tcrace -daemon-stats 127.0.0.1:7455   # print daemon statistics as JSON
//
// Ingestion is batched. -workers N > 1 runs the sharded analysis
// runtime: variables partition across N full engine replicas and the
// race checks run only on each variable's owner, with results
// byte-identical to the sequential pass. -workers 1 is the sequential
// pass; for text input on a host with GOMAXPROCS > 1 its one replica
// runs in a worker goroutine, so decoding overlaps analysis. -workers
// 0 means GOMAXPROCS workers, resolved before anything else, so on a
// single-CPU host it is the sequential pass too; local and -remote
// runs resolve it the same way. At most 256 workers are accepted.
//
// -checkpoint PATH writes a crash-safe checkpoint of the full analysis
// state to PATH every -checkpoint-every events (atomically: temp file
// plus rename, so a kill mid-write never corrupts the previous
// checkpoint). -resume PATH restores such a checkpoint before reading
// the trace — which must be the same input, re-opened from the start —
// and the finished run's report is byte-identical to an uninterrupted
// one. Both flags require a trace file or a restartable stdin; the
// worker count and engine flags must match the checkpointed run's.
//
// Three flags bound the residual state that otherwise grows for the
// lifetime of a long stream. -reclaim-slots retires a thread's clock
// slot once it is fully joined, so thread-churn workloads keep clock
// width proportional to the number of concurrently live threads
// (non-predictive engines only; reported thread ids are then internal
// slot numbers, not the trace's external ids). -summary-cap N ages out
// wcp rule-(a) acquire summaries whose snapshots are dominated by the
// lock's published release clock, holding live summaries near N with
// results identical to the unbounded run. -intern-cap N evicts the
// coldest interned identifier names above N per space (threads, locks,
// vars) for text input; a name seen again after eviction becomes a
// fresh identity, which is sound for race detection but makes reported
// ids for such names differ from an uncapped run.
//
// -remote ADDR runs the session in a tcraced daemon instead of
// in-process: the trace is decoded (and, unless -no-validate,
// checked) locally, shipped over the daemon's framed wire protocol,
// and the report — byte-identical to a local run — is rendered from
// the daemon's result. The daemon checkpoints every session to its
// spool, so a killed daemon or a -resume-session rerun continues from
// the spooled frontier, re-feeding only the tail; -session names the
// session (default: derived from the trace filename). A session the
// daemon evicts over budget exits with code 4 and is resumable the
// same way. -daemon-stats ADDR prints the daemon's live statistics
// (sessions, engines, event/race rates, retained bytes) as JSON and
// exits. An example transcript lives in the tcraced command doc.
//
// Prints the race summary and up to 64 sample pairs, plus timing and —
// with -work — the data-structure work counters. Engine names come
// from the registry (see -list).
//
// Exit codes:
//
//	0  analysis completed, no races detected
//	1  analysis completed, races detected
//	2  usage or I/O error (bad flags, unreadable input, malformed trace)
//	3  corrupt or truncated checkpoint (-resume)
//	4  remote session evicted over budget (-remote; resume with -resume-session)
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"treeclock"
	"treeclock/internal/daemon"
	"treeclock/internal/trace"
)

// Exit codes; see the package comment.
const (
	exitClean   = 0
	exitRaces   = 1
	exitUsage   = 2
	exitCorrupt = 3
	exitEvicted = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// exitCodesDoc is appended to -h output; the cmd test pins it.
const exitCodesDoc = `
Exit codes:
  0  analysis completed, no races detected
  1  analysis completed, races detected
  2  usage or I/O error (bad flags, unreadable input, malformed trace)
  3  corrupt or truncated checkpoint (-resume)
  4  remote session evicted over budget (-remote; resume with -resume-session)
`

// printUsage writes the flag summary and the exit-code contract to w.
func printUsage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, "usage: tcrace [flags] [trace-file]\n\nFlags:\n")
	fs.SetOutput(w)
	fs.PrintDefaults()
	fmt.Fprint(w, exitCodesDoc)
}

// run is the whole command, factored from main so tests can pin the
// exit-code contract without spawning processes.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		engine       = fs.String("engine", "hb-tree", "registry engine name (see -list)")
		format       = fs.String("format", "text", "trace format: text or bin")
		work         = fs.Bool("work", false, "also report data-structure work counters")
		samples      = fs.Int("samples", 10, "sample races to print")
		list         = fs.Bool("list", false, "list registered engines and exit")
		noValidate   = fs.Bool("no-validate", false, "skip incremental well-formedness checking (lock/fork/join discipline)")
		workers      = fs.Int("workers", 1, "shard the analysis across N worker replicas (1 = sequential; 0 = GOMAXPROCS, so sequential on one CPU)")
		progress     = fs.Uint64("progress", 0, "print a progress line to stderr every N events (0 = off)")
		checkpoint   = fs.String("checkpoint", "", "write a crash-safe checkpoint to this file every -checkpoint-every events")
		ckptEvery    = fs.Uint64("checkpoint-every", 1_000_000, "events between checkpoints (with -checkpoint)")
		resume       = fs.String("resume", "", "restore analysis state from this checkpoint file before reading the trace")
		reclaimSlots = fs.Bool("reclaim-slots", false, "reclaim fully-joined threads' clock slots so thread-churn streams keep bounded clock width (hb/shb/maz; reported thread ids become slot numbers)")
		summaryCap   = fs.Int("summary-cap", 0, "age out dominated rule-(a) acquire summaries above roughly N live entries (wcp engines; 0 = unbounded)")
		internCap    = fs.Int("intern-cap", 0, "evict the coldest interned identifier names above N per space (text input; evicted names reappear as fresh ids; 0 = unbounded)")
		remote       = fs.String("remote", "", "run the session in a tcraced daemon at this address (host:port or a unix socket path) instead of in-process")
		session      = fs.String("session", "", "daemon session id (with -remote; default: derived from the trace filename)")
		resumeSess   = fs.Bool("resume-session", false, "resume the daemon session from its server-side checkpoint and re-feed only the tail (with -remote)")
		daemonStats  = fs.String("daemon-stats", "", "print a tcraced daemon's statistics snapshot as JSON and exit")
	)
	// flag reports parse errors to fs.Output on its own; Usage is
	// rendered once, to stdout for -h and to stderr for usage errors.
	fs.Usage = func() {}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			printUsage(fs, stdout)
			return exitClean
		}
		printUsage(fs, stderr)
		return exitUsage
	}

	if *list {
		for _, info := range treeclock.EngineInfos() {
			fmt.Fprintf(stdout, "%-10s %s\n", info.Name, info.Doc)
		}
		return exitClean
	}

	if *daemonStats != "" {
		return printDaemonStats(*daemonStats, stdout, stderr)
	}
	if *remote == "" && (*session != "" || *resumeSess) {
		fmt.Fprintf(stderr, "tcrace: -session and -resume-session require -remote\n")
		return exitUsage
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "tcrace: %v\n", err)
			return exitUsage
		}
		defer f.Close()
		in = f
	}

	if *format != "text" && *format != "bin" {
		fmt.Fprintf(stderr, "tcrace: unknown format %q\n", *format)
		return exitUsage
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "tcrace: -workers must be >= 0 (got %d)\n", *workers)
		return exitUsage
	}
	nworkers := *workers
	if nworkers == 0 {
		nworkers = runtime.GOMAXPROCS(0)
	}

	if *remote != "" {
		switch {
		case *checkpoint != "" || *resume != "":
			fmt.Fprintf(stderr, "tcrace: -checkpoint/-resume are local-run flags; the daemon spools checkpoints server-side (continue with -resume-session)\n")
			return exitUsage
		case *work:
			fmt.Fprintf(stderr, "tcrace: -work is not available for remote runs (the counters live in the daemon)\n")
			return exitUsage
		case *internCap > 0 && *format == "bin":
			fmt.Fprintf(stderr, "tcrace: -intern-cap requires text input\n")
			return exitUsage
		}
		id := *session
		if id == "" {
			name := ""
			if fs.NArg() > 0 {
				name = fs.Arg(0)
			}
			id = defaultSessionID(name)
		}
		r := &remoteRun{
			addr:       *remote,
			sessionID:  id,
			engine:     *engine,
			binary:     *format == "bin",
			validate:   !*noValidate,
			workers:    nworkers,
			reclaim:    *reclaimSlots,
			summaryCap: *summaryCap,
			internCap:  *internCap,
			resume:     *resumeSess,
			progress:   *progress,
			samples:    *samples,
		}
		return r.run(in, stdout, stderr)
	}

	opts := []treeclock.StreamOption{}
	if !*noValidate {
		opts = append(opts, treeclock.StreamValidate())
	}
	if *reclaimSlots {
		opts = append(opts, treeclock.WithSlotReclaim())
	}
	if *summaryCap > 0 {
		opts = append(opts, treeclock.WithSummaryCap(*summaryCap))
	}
	if *internCap > 0 {
		opts = append(opts, treeclock.WithInternCap(*internCap))
	}
	if *progress > 0 {
		opts = append(opts, treeclock.WithProgress(*progress, func(p treeclock.Progress) {
			fmt.Fprintf(stderr, "progress: %d events (%.2fM ev/s)\n", p.Events, p.Rate/1e6)
		}))
	}
	if *format == "bin" {
		opts = append(opts, treeclock.StreamBinary())
	}
	var st treeclock.WorkStats
	if *work {
		opts = append(opts, treeclock.StreamWorkStats(&st))
	}
	if *checkpoint != "" {
		opts = append(opts, treeclock.WithCheckpoint(*ckptEvery, treeclock.FileCheckpointSink{Path: *checkpoint}))
	}
	if nworkers > 1 {
		opts = append(opts, treeclock.WithWorkers(nworkers))
	}
	if *resume != "" {
		// Read the checkpoint fully up front rather than streaming from
		// an open handle: with -checkpoint naming the same path (the
		// natural spelling for "continue and keep checkpointing here"),
		// the sink's first temp+rename would otherwise replace the file
		// while the restore still holds it — on platforms where renaming
		// over an open file fails, that aborts the run mid-restore.
		data, err := os.ReadFile(*resume)
		if err != nil {
			fmt.Fprintf(stderr, "tcrace: %v\n", err)
			return exitUsage
		}
		opts = append(opts, treeclock.ResumeFrom(bytes.NewReader(data)))
	}

	start := time.Now()
	res, err := treeclock.RunStream(*engine, in, opts...)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintf(stderr, "tcrace: %v\n", err)
		if errors.Is(err, treeclock.ErrCorruptCheckpoint) {
			return exitCorrupt
		}
		return exitUsage
	}

	var workPtr *treeclock.WorkStats
	if *work {
		workPtr = &st
	}
	return printReport(stdout, res, elapsed, nworkers > 1, workPtr, *samples)
}

// printReport renders the analysis report. Local and remote runs share
// it, so the two paths produce line-for-line comparable output (only
// the elapsed time differs by nature). Returns the exit code implied
// by the race summary.
func printReport(stdout io.Writer, res *treeclock.StreamResult, elapsed time.Duration, sharded bool, work *treeclock.WorkStats, samples int) int {
	fmt.Fprintf(stdout, "trace: %d events, %d threads, %d vars, %d locks (streamed, no prior metadata)\n",
		res.Events, res.Meta.Threads, res.Meta.Vars, res.Meta.Locks)
	if sharded {
		fmt.Fprintf(stdout, "analysis sharded across worker replicas (variable-partitioned; results identical to sequential)\n")
	}
	fmt.Fprintf(stdout, "%s: %d concurrent conflicting pairs detected in %v\n",
		res.Engine, res.Summary.Total, elapsed.Round(time.Microsecond))
	if work != nil {
		fmt.Fprintf(stdout, "work: %d entries touched, %d changed (VTWork), %d joins, %d copies, %d deep copies\n",
			work.Entries, work.Changed, work.Joins, work.Copies, work.DeepCopies)
	}
	if len(res.Samples) > 0 && samples > 0 {
		fmt.Fprintln(stdout, "sample pairs:")
		for i, p := range res.Samples {
			if i >= samples {
				fmt.Fprintf(stdout, "  ... (%d samples kept)\n", len(res.Samples))
				break
			}
			fmt.Fprintf(stdout, "  %s\n", p)
		}
	}
	if res.Summary.Total > 0 {
		return exitRaces
	}
	return exitClean
}

// remoteRun is the -remote client: decode (and validate) the trace
// locally, ship it to a tcraced daemon over the framed wire protocol,
// and render the daemon's result exactly as a local run would.
type remoteRun struct {
	addr       string
	sessionID  string
	engine     string
	binary     bool
	validate   bool
	workers    int // resolved: -workers 0 is already GOMAXPROCS
	reclaim    bool
	summaryCap int
	internCap  int
	resume     bool
	progress   uint64
	samples    int
}

func (r *remoteRun) run(in io.Reader, stdout, stderr io.Writer) int {
	var src trace.EventSource
	if r.binary {
		src = trace.NewBinaryScanner(in)
	} else {
		s := trace.NewScanner(in)
		if r.internCap > 0 {
			s.SetInternCap(r.internCap)
		}
		src = s
	}
	if r.validate {
		src = trace.NewValidator(src)
	}

	c, err := daemon.Dial(r.addr)
	if err != nil {
		fmt.Fprintf(stderr, "tcrace: %v\n", err)
		return exitUsage
	}
	defer c.Close()
	if r.progress > 0 {
		c.OnProgress(func(events, retained uint64) {
			fmt.Fprintf(stderr, "progress: %d events (remote session, %d bytes retained)\n", events, retained)
		})
	}

	opts := []daemon.OpenOption{}
	if r.workers > 1 {
		opts = append(opts, daemon.OpenWorkers(r.workers))
	}
	if r.reclaim {
		opts = append(opts, daemon.OpenSlotReclaim())
	}
	if r.summaryCap > 0 {
		opts = append(opts, daemon.OpenSummaryCap(r.summaryCap))
	}
	if r.resume {
		opts = append(opts, daemon.OpenResume())
	}

	start := time.Now()
	pos, err := c.Open(r.sessionID, r.engine, opts...)
	if err != nil {
		fmt.Fprintf(stderr, "tcrace: %v\n", err)
		return exitUsage
	}
	if pos > 0 {
		fmt.Fprintf(stderr, "tcrace: session %q resumed at %d events; re-feeding the tail\n", r.sessionID, pos)
	}
	if _, err := c.FeedSource(src, pos); err != nil {
		return r.fail(err, stderr)
	}
	res, err := c.Finish()
	if err != nil {
		return r.fail(err, stderr)
	}
	elapsed := time.Since(start)
	return printReport(stdout, res, elapsed, r.workers > 1, nil, r.samples)
}

// fail maps a remote-session error to its exit code: evictions are
// resumable and get their own code, anything else is a usage/transport
// failure.
func (r *remoteRun) fail(err error, stderr io.Writer) int {
	fmt.Fprintf(stderr, "tcrace: %v\n", err)
	var ev *daemon.EvictedError
	if errors.As(err, &ev) {
		fmt.Fprintf(stderr, "tcrace: the daemon kept a checkpoint; continue with -resume-session -session %s\n", r.sessionID)
		return exitEvicted
	}
	return exitUsage
}

// printDaemonStats implements -daemon-stats: one round-trip for the
// statistics snapshot, printed as indented JSON.
func printDaemonStats(addr string, stdout, stderr io.Writer) int {
	c, err := daemon.Dial(addr)
	if err != nil {
		fmt.Fprintf(stderr, "tcrace: %v\n", err)
		return exitUsage
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		fmt.Fprintf(stderr, "tcrace: %v\n", err)
		return exitUsage
	}
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "tcrace: %v\n", err)
		return exitUsage
	}
	fmt.Fprintln(stdout, string(out))
	return exitClean
}

// defaultSessionID derives a daemon session id from the trace path:
// the file's base name with unsafe bytes mapped to '_', or
// "tcrace-stdin" for standard input. Concurrent runs over the same
// file need explicit -session ids (a daemon serves one live session
// per id).
func defaultSessionID(path string) string {
	if path == "" {
		return "tcrace-stdin"
	}
	b := []byte(filepath.Base(path))
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			b[i] = '_'
		}
	}
	id := strings.TrimLeft(string(b), ".-")
	if id == "" {
		id = "tcrace"
	}
	if len(id) > 128 {
		id = id[:128]
	}
	return id
}
