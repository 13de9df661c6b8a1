// Command traceinfo prints the Table 3-style statistics of a trace
// file: events (N), threads (T), memory locations (M), locks (L), and
// the synchronization/access event shares. It also audits lock usage:
// unbalanced locks (acquire/release counts differing — sections left
// open, or stray releases on malformed input) are always flagged, and
// -locks prints the full per-lock acquire/release table. With -wcp it
// additionally runs the WCP engine over the trace and reports the
// retained critical-section state per lock — live and peak rule-(b)
// history length, entries reclaimed by compaction, rule-(a) summary
// vectors and approximate retained bytes — the numbers that tell
// whether a trace's lock structure lets the history drain.
//
// Usage:
//
//	traceinfo trace.txt
//	traceinfo -locks trace.txt
//	traceinfo -wcp trace.txt
//	tracegen -pattern star -threads 16 | traceinfo
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"treeclock/internal/engine"
	"treeclock/internal/trace"
	"treeclock/internal/vc"
	"treeclock/internal/wcp"
)

func main() {
	var (
		format    = flag.String("format", "text", "trace format: text or bin")
		validate  = flag.Bool("validate", true, "check trace well-formedness")
		showLocks = flag.Bool("locks", false, "print per-lock acquire/release counts")
		showWCP   = flag.Bool("wcp", false, "run the WCP engine and print per-lock retained-history statistics")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	name := "<stdin>"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "traceinfo: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
		name = flag.Arg(0)
	}
	var tr *trace.Trace
	var err error
	switch *format {
	case "text":
		tr, err = trace.ParseText(in)
	case "bin":
		tr, err = trace.ReadBinary(in)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceinfo: %v\n", err)
		os.Exit(1)
	}
	if *validate {
		if err := tr.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "traceinfo: %s: INVALID: %v\n", name, err)
			os.Exit(1)
		}
	}
	s := trace.ComputeStats(tr)
	fmt.Printf("%s\n", name)
	fmt.Printf("  events (N):     %d\n", s.Events)
	fmt.Printf("  threads (T):    %d\n", s.Threads)
	fmt.Printf("  locations (M):  %d\n", s.Vars)
	fmt.Printf("  locks (L):      %d\n", s.Locks)
	fmt.Printf("  sync events:    %.1f%%\n", s.SyncPct)
	fmt.Printf("  r/w events:     %.1f%% (%d reads, %d writes)\n", s.RWPct, s.Reads, s.Writes)

	lockStats := trace.ComputeLockStats(tr)
	acquires, releases := 0, 0
	for _, ls := range lockStats {
		acquires += ls.Acquires
		releases += ls.Releases
	}
	fmt.Printf("  lock ops:       %d acquires, %d releases across %d locks\n",
		acquires, releases, len(lockStats))
	for _, ls := range lockStats {
		if !ls.Unbalanced() {
			continue
		}
		line := fmt.Sprintf("  UNBALANCED:     l%d: %d acq / %d rel", ls.Lock, ls.Acquires, ls.Releases)
		if ls.Holder != -1 {
			line += fmt.Sprintf(" (held by t%d at end of trace)", ls.Holder)
		}
		fmt.Println(line)
	}
	if *showLocks {
		fmt.Printf("  per lock:\n")
		for _, ls := range lockStats {
			fmt.Printf("    l%-6d %6d acq %6d rel\n", ls.Lock, ls.Acquires, ls.Releases)
		}
	}
	if *showWCP {
		reportWCP(tr)
	}
}

// reportWCP runs the WCP engine (vector-clock backbone; the weak-order
// state is shared across variants) over the materialized trace and
// prints its retained critical-section state, per lock.
func reportWCP(tr *trace.Trace) {
	sem := wcp.NewSemantics[*vc.VectorClock]()
	engine.New(sem, vc.Factory(nil)).Process(tr.Events)
	ms := sem.MemStats()
	fmt.Printf("  wcp retained:   %d history entries live (peak %d on one lock), %d compacted, %d summary vectors, ~%d bytes\n",
		ms.HistEntries, ms.PeakLockHist, ms.DroppedEntries, ms.SummaryVectors, ms.RetainedBytes)
	stats := sem.LockHistStats()
	if len(stats) == 0 {
		return
	}
	fmt.Printf("  wcp per lock:   (live/peak/compacted history, summary vectors, ~bytes)\n")
	for _, st := range stats {
		fmt.Printf("    l%-6d %6d live %6d peak %9d compacted %6d summaries %9d B\n",
			st.Lock, st.Live, st.Peak, st.Dropped, st.Summaries, st.RetainedBytes)
	}
}
