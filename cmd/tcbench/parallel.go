package main

// The parallel experiment measures the sharded analysis runtime
// (RunStream with WithWorkers) against the sequential pass: a
// workers × engine × format sweep over an access-heavy workload whose
// per-event cost is dominated by the race analysis — the share
// sharding actually distributes. Formats: "mem" replays a
// materialized trace (no decode at all, the engine-bound configuration
// the speedup criterion is about), "text" and "bin" include the
// decoder on the coordinator.
// With -json the sweep lands in a machine-readable report
// (BENCH_parallel.json) so the multicore CI lane tracks the
// parallel-vs-sequential trajectory; each row carries its speedup over
// the sequential run of the same engine × format. On a single-CPU
// host the sweep still runs (and the workers merely timeshare), so the
// report also records GOMAXPROCS.

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"treeclock"
	"treeclock/internal/gen"
	"treeclock/internal/trace"
)

// parallelResult is one engine × format × workers measurement.
// Workers == 0 denotes the sequential baseline.
type parallelResult struct {
	Trace        string  `json:"trace"`
	Engine       string  `json:"engine"`
	Format       string  `json:"format"`
	Workers      int     `json:"workers"`
	EventsPerSec float64 `json:"events_per_sec"`
	NsPerEvent   float64 `json:"ns_per_event"`
	Speedup      float64 `json:"speedup_vs_sequential"`
	Pairs        uint64  `json:"pairs"`
}

// parallelReport is the -json payload.
type parallelReport struct {
	Experiment string            `json:"experiment"`
	GoVersion  string            `json:"go_version"`
	MaxProcs   int               `json:"gomaxprocs"`
	Repeats    int               `json:"repeats"`
	Traces     []ingestTraceInfo `json:"traces"`
	Results    []parallelResult  `json:"results"`
}

// parallelExperiment runs the sweep. events sizes the workload,
// workersList is the shard widths to measure (the sequential baseline
// always runs), repeats picks the best of N timings per cell.
func parallelExperiment(events, repeats int, workersList []int, jsonPath string) {
	if repeats < 1 {
		repeats = 1
	}
	// Access-heavy and widely shared: most events are reads/writes over
	// a large variable space with a hot racy subset, so the detector —
	// the sharded component — dominates the per-event cost.
	tr := gen.Mixed(gen.Config{
		Name: "parallel-mixed", Threads: 16, Locks: 8, Vars: 16384,
		Events: events, Seed: 31, SyncFrac: 0.05,
		LockAffinity: 2, Groups: 4, HotFrac: 0.25,
	})
	var text, bin bytes.Buffer
	if err := trace.WriteText(&text, tr); err != nil {
		fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
		os.Exit(1)
	}
	if err := trace.WriteBinary(&bin, tr); err != nil {
		fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
		os.Exit(1)
	}
	report := parallelReport{
		Experiment: "parallel",
		GoVersion:  runtime.Version(),
		MaxProcs:   runtime.GOMAXPROCS(0),
		Repeats:    repeats,
		Traces: []ingestTraceInfo{{
			Name: tr.Meta.Name, Events: tr.Len(), Threads: tr.Meta.Threads,
			Locks: tr.Meta.Locks, Vars: tr.Meta.Vars,
			TextBytes: text.Len(), BinaryBytes: bin.Len(),
		}},
	}
	fmt.Printf("Sharded-analysis sweep over %q: %d events, %d threads, %d vars, GOMAXPROCS=%d:\n",
		tr.Meta.Name, tr.Len(), tr.Meta.Threads, tr.Meta.Vars, runtime.GOMAXPROCS(0))

	formats := []struct {
		name string
		run  func(engine string, workers int) (*treeclock.StreamResult, error)
	}{
		// WithWorkers(0) is the sequential baseline.
		{"mem", func(engine string, workers int) (*treeclock.StreamResult, error) {
			return treeclock.RunStreamSource(engine, trace.NewReplayer(tr), treeclock.WithWorkers(workers))
		}},
		{"text", func(engine string, workers int) (*treeclock.StreamResult, error) {
			// RunStreamSource keeps the baseline inline: RunStream
			// would put sequential text behind a worker on multi-core
			// hosts, a different (two-goroutine) denominator than the
			// bin and mem rows use.
			return treeclock.RunStreamSource(engine, treeclock.NewTraceScanner(bytes.NewReader(text.Bytes())),
				treeclock.WithWorkers(workers))
		}},
		{"bin", func(engine string, workers int) (*treeclock.StreamResult, error) {
			return treeclock.RunStream(engine, bytes.NewReader(bin.Bytes()),
				treeclock.StreamBinary(), treeclock.WithWorkers(workers))
		}},
	}

	for _, engine := range treeclock.Engines() {
		for _, f := range formats {
			var baseline float64
			var seqPairs uint64
			line := fmt.Sprintf("  %-10s %-5s", engine, f.name)
			for _, workers := range append([]int{0}, workersList...) {
				best := time.Duration(0)
				var pairs uint64
				for rep := 0; rep < repeats; rep++ {
					start := time.Now()
					res, err := f.run(engine, workers)
					el := time.Since(start)
					if err != nil {
						fmt.Fprintf(os.Stderr, "tcbench: %s/%s workers=%d: %v\n", engine, f.name, workers, err)
						os.Exit(1)
					}
					pairs = res.Summary.Total
					if best == 0 || el < best {
						best = el
					}
				}
				if workers == 0 {
					seqPairs = pairs
				} else if pairs != seqPairs {
					fmt.Fprintf(os.Stderr, "tcbench: %s/%s workers=%d: pair count %d diverges from sequential %d\n",
						engine, f.name, workers, pairs, seqPairs)
					os.Exit(1)
				}
				evs := float64(tr.Len()) / best.Seconds()
				speedup := 1.0
				if workers == 0 {
					baseline = evs
				} else if baseline > 0 {
					speedup = evs / baseline
				}
				report.Results = append(report.Results, parallelResult{
					Trace: tr.Meta.Name, Engine: engine, Format: f.name, Workers: workers,
					EventsPerSec: evs, NsPerEvent: 1e9 / evs, Speedup: speedup, Pairs: pairs,
				})
				if workers == 0 {
					line += fmt.Sprintf("  seq %7.2fM ev/s", evs/1e6)
				} else {
					line += fmt.Sprintf("  w%-2d %7.2fM (%.2fx)", workers, evs/1e6, speedup)
				}
			}
			fmt.Println(line)
		}
	}
	if jsonPath != "" {
		writeJSONReport(jsonPath, &report, len(report.Results))
	}
}
