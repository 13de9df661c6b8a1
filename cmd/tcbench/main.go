// Command tcbench regenerates the paper's evaluation, Tables 1–3 and
// Figures 6–10, and measures ingestion, retained state and the sharded
// runtime.
//
// Usage:
//
//	tcbench -experiment table2            # one experiment
//	tcbench -experiment all -scale 0.5    # everything, smaller traces
//	tcbench -experiment fig10 -fig10-events 1000000 -fig10-threads 10,60,110
//
// Experiments: table1, table2, table3, fig6, fig7, fig8, fig9, fig10,
// ingest, mem, parallel, all. Results print to stdout; the ROADMAP's
// Performance section records measured numbers, and
// benchmark/README.md describes the per-layer benchmark. Every
// experiment runs the registry engines. The tables and figures come
// from internal/bench, their only implementation, which replays the
// materialized trace through RunStreamSource. The ingest experiment
// compares scalar, batched and pipelined (one worker analyzing while
// the driver decodes) ingestion per engine × format
// (tcbench -experiment ingest -json BENCH_ingest.json for the
// machine-readable report) and exits 1 when a cell streams a different
// number of events than its trace holds. The mem experiment streams
// the endless hot-lock / rotating-locks / churning-vars workloads
// through every engine and records retained state — history entries,
// peak per-lock history length, retained bytes per event, and the WCP
// compaction before/after comparison (tcbench -experiment mem
// -mem-json BENCH_mem.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"treeclock/internal/bench"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "experiment to run: table1|table2|table3|fig6|fig7|fig8|fig9|fig10|ingest|mem|parallel|all")
		streamEv    = flag.Int("stream-events", 400000, "events in the ingest experiment's generated mixed trace (its star trace has half as many)")
		jsonPath    = flag.String("json", "", "write the ingest experiment's machine-readable report to this file (e.g. BENCH_ingest.json)")
		memEv       = flag.Int("mem-events", 400000, "events streamed per mem-experiment workload")
		memJSONPath = flag.String("mem-json", "", "write the mem experiment's machine-readable report to this file (e.g. BENCH_mem.json)")
		parEv       = flag.Int("parallel-events", 400000, "events in the parallel-experiment workload")
		parWorkers  = flag.String("parallel-workers", "1,2,4", "comma-separated worker counts for the parallel sweep")
		scale       = flag.Float64("scale", 1.0, "suite event-count multiplier (1.0 ≈ hundreds of thousands of events per large trace)")
		repeats     = flag.Int("repeats", 3, "timing repetitions to average (paper: 3)")
		fig10Events = flag.Int("fig10-events", 400000, "events per scalability trace (paper: 10M)")
		fig10Thr    = flag.String("fig10-threads", "10,60,110,160,210,260,310,360", "comma-separated thread counts for the scalability sweep")
	)
	flag.Parse()

	threads, err := parseIntList(*fig10Thr, 2, "thread count")
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcbench: bad -fig10-threads: %v\n", err)
		os.Exit(2)
	}
	workersList, err := parseIntList(*parWorkers, 1, "worker count")
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcbench: bad -parallel-workers: %v\n", err)
		os.Exit(2)
	}
	want := strings.ToLower(*experiment)
	// -json names one report file; under "all" it belongs to the ingest
	// experiment (the historical owner), so the parallel sweep only
	// writes when selected directly.
	parJSON := ""
	if want == "parallel" {
		parJSON = *jsonPath
	}
	h := bench.NewHarness(bench.Options{
		Scale:        *scale,
		Repeats:      *repeats,
		Fig10Events:  *fig10Events,
		Fig10Threads: threads,
	})

	type exp struct {
		name string
		run  func()
	}
	all := []exp{
		{"table1", func() { h.Table1(os.Stdout) }},
		{"table3", func() { h.Table3(os.Stdout) }},
		{"table2", func() { h.Table2(os.Stdout) }},
		{"fig6", func() { h.Figure6(os.Stdout) }},
		{"fig7", func() { h.Figure7(os.Stdout) }},
		{"fig8", func() { h.Figure8(os.Stdout) }},
		{"fig9", func() { h.Figure9(os.Stdout) }},
		{"fig10", func() { h.Figure10(os.Stdout) }},
		{"ingest", func() { ingestExperiment(*streamEv, *repeats, *jsonPath) }},
		{"mem", func() { memExperiment(*memEv, *memJSONPath) }},
		{"parallel", func() { parallelExperiment(*parEv, *repeats, workersList, parJSON) }},
	}

	ran := false
	for _, e := range all {
		if want == "all" || want == e.name {
			start := time.Now()
			e.run()
			fmt.Printf("[%s took %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "tcbench: unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
}

// writeJSONReport writes one experiment's machine-readable report:
// indented JSON plus a trailing newline, logged with the result count.
func writeJSONReport(path string, report any, results int) {
	payload, err := json.MarshalIndent(report, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(payload, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcbench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d results)\n", path, results)
}

// parseIntList parses a comma-separated list of counts, each at least
// min (what names the quantity in errors).
func parseIntList(s string, min int, what string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		if n < min {
			return nil, fmt.Errorf("%s %d too small", what, n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
