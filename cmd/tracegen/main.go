// Command tracegen synthesizes execution traces and writes them in the
// text or binary trace format.
//
// Usage:
//
//	tracegen -pattern mixed -threads 8 -locks 4 -vars 64 -events 100000 > trace.txt
//	tracegen -pattern star -threads 32 -events 500000 -format bin -o star.tr
//	tracegen -pattern pairwise -threads 16 -seed 7 | tcrace -engine shb-tree
//
// Patterns: mixed, single-lock, fifty-locks, star, pairwise,
// producer-consumer, pipeline, barrier, readers-writers,
// readers-writers-racy, fork-join.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"treeclock/internal/gen"
	"treeclock/internal/trace"
)

func main() {
	var (
		pattern  = flag.String("pattern", "mixed", "workload pattern")
		threads  = flag.Int("threads", 8, "number of threads")
		locks    = flag.Int("locks", 4, "number of locks (mixed pattern)")
		vars     = flag.Int("vars", 64, "number of variables (mixed pattern)")
		events   = flag.Int("events", 100000, "approximate number of events")
		seed     = flag.Int64("seed", 1, "random seed")
		syncFrac = flag.Float64("sync", 0.2, "critical-section start probability (mixed)")
		readFrac = flag.Float64("reads", 0.6, "fraction of accesses that are reads (mixed)")
		format   = flag.String("format", "text", "output format: text or bin")
		out      = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	tr, err := build(*pattern, *threads, *locks, *vars, *events, *seed, *syncFrac, *readFrac)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(2)
	}
	if err := tr.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: generated trace failed validation: %v\n", err)
		os.Exit(1)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "text":
		err = trace.WriteText(w, tr)
	case "bin":
		err = trace.WriteBinary(w, tr)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	s := trace.ComputeStats(tr)
	fmt.Fprintf(os.Stderr, "tracegen: %s: %d events, %d threads, %d vars, %d locks, %.1f%% sync\n",
		tr.Meta.Name, s.Events, s.Threads, s.Vars, s.Locks, s.SyncPct)
}

func build(pattern string, threads, locks, vars, events int, seed int64, syncFrac, readFrac float64) (*trace.Trace, error) {
	switch pattern {
	case "mixed":
		return gen.Mixed(gen.Config{
			Name: "mixed", Threads: threads, Locks: locks, Vars: vars,
			Events: events, Seed: seed, SyncFrac: syncFrac, ReadFrac: readFrac,
		}), nil
	case "single-lock":
		return gen.SingleLock(threads, events, seed), nil
	case "fifty-locks":
		return gen.FiftyLocksSkewed(threads, events, seed), nil
	case "star":
		return gen.Star(threads, events, seed), nil
	case "pairwise":
		return gen.Pairwise(threads, events, seed), nil
	case "producer-consumer":
		p := threads / 2
		if p == 0 {
			p = 1
		}
		return gen.ProducerConsumer(p, threads-p, events, seed), nil
	case "pipeline":
		return gen.Pipeline(threads, events, seed), nil
	case "barrier":
		phases := events / (threads * 12)
		if phases < 1 {
			phases = 1
		}
		return gen.BarrierPhases(threads, phases, 8, seed), nil
	case "readers-writers":
		return gen.ReadersWriters(threads, events, seed, false), nil
	case "readers-writers-racy":
		return gen.ReadersWriters(threads, events, seed, true), nil
	case "fork-join":
		per := events / (threads * 5)
		if per < 1 {
			per = 1
		}
		return gen.ForkJoinTree(threads, per, seed), nil
	default:
		return nil, fmt.Errorf("unknown pattern %q", pattern)
	}
}
