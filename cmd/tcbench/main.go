// Command tcbench regenerates the paper's evaluation: Tables 1–3 and
// Figures 6–10, plus an ablation study of the tree clock's mechanisms.
//
// Usage:
//
//	tcbench -experiment table2            # one experiment
//	tcbench -experiment all -scale 0.5    # everything, smaller traces
//	tcbench -experiment fig10 -fig10-events 1000000 -fig10-threads 10,60,110
//
// Experiments: table1, table2, table3, fig6, fig7, fig8, fig9, fig10,
// ablation, stream, ingest, mem, parallel, all. Results print to
// stdout; the ROADMAP's Performance section records measured numbers,
// and benchmark/README.md describes the per-layer benchmark. Every
// experiment runs the registry engines (the tables and figures replay
// the materialized trace through RunStreamSource). The stream
// experiment compares the one-pass streaming path (RunStream: parse +
// analyze with no prior metadata) against that in-memory replay for
// every registry engine; with -stream-file it instead streams a trace
// file directly. The ingest experiment compares scalar, batched
// and pipelined ingestion per engine × format (tcbench -experiment
// ingest -json BENCH_ingest.json for the machine-readable report). The
// mem experiment streams the endless hot-lock / rotating-locks /
// churning-vars workloads through every engine and records retained
// state — history entries, peak per-lock history length, retained
// bytes per event, and the WCP compaction before/after comparison
// (tcbench -experiment mem -mem-json BENCH_mem.json).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"treeclock"
	"treeclock/internal/bench"
	"treeclock/internal/gen"
	"treeclock/internal/trace"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "experiment to run: table1|table2|table3|fig6|fig7|fig8|fig9|fig10|ablation|stream|ingest|mem|parallel|all")
		streamEv    = flag.Int("stream-events", 400000, "events in the generated stream- and ingest-experiment traces")
		jsonPath    = flag.String("json", "", "write the ingest experiment's machine-readable report to this file (e.g. BENCH_ingest.json)")
		memEv       = flag.Int("mem-events", 400000, "events streamed per mem-experiment workload")
		memJSONPath = flag.String("mem-json", "", "write the mem experiment's machine-readable report to this file (e.g. BENCH_mem.json)")
		parEv       = flag.Int("parallel-events", 400000, "events in the parallel-experiment workload")
		parWorkers  = flag.String("parallel-workers", "1,2,4", "comma-separated worker counts for the parallel sweep")
		streamFile  = flag.String("stream-file", "", "stream this trace file instead of a generated workload (text format, or bin with -stream-bin)")
		streamBin   = flag.Bool("stream-bin", false, "treat -stream-file as binary format")
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
		{"ablation", func() { h.Ablation(os.Stdout) }},
		{"stream", func() { streamExperiment(*streamEv, *streamFile, *streamBin) }},
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

// streamExperiment compares the one-pass streaming path against the
// materialized path for every registry engine. With a file it streams
// that file once per engine (re-opened each run); otherwise it
// generates a communication-rich workload and streams its serialized
// bytes from memory.
func streamExperiment(events int, file string, bin bool) {
	if file != "" {
		fmt.Printf("Streaming %s through every registry engine (one pass, no prior metadata):\n", file)
		for _, name := range treeclock.Engines() {
			f, err := os.Open(file)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
				os.Exit(1)
			}
			opts := []treeclock.StreamOption{}
			if bin {
				opts = append(opts, treeclock.StreamBinary())
			}
			start := time.Now()
			res, err := treeclock.RunStream(name, f, opts...)
			el := time.Since(start)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "tcbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Printf("  %-10s %9d events %8.0f ev/ms  %d pairs\n",
				name, res.Events, evPerMS(int(res.Events), el), res.Summary.Total)
		}
		return
	}

	tr := gen.Mixed(gen.Config{
		Name: "stream-bench", Threads: 32, Locks: 24, Vars: 4096,
		Events: events, Seed: 11, SyncFrac: 0.25,
		LockAffinity: 3, Groups: 6, HotFrac: 0.06,
	})
	var text, binBuf bytes.Buffer
	if err := trace.WriteText(&text, tr); err != nil {
		fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
		os.Exit(1)
	}
	if err := trace.WriteBinary(&binBuf, tr); err != nil {
		fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("Streaming vs materialized, %d events (%d threads), text %d bytes / binary %d bytes:\n",
		tr.Len(), tr.Meta.Threads, text.Len(), binBuf.Len())
	for _, info := range treeclock.EngineInfos() {
		mat := bench.Run(tr, bench.Config{Engine: info.Name, Analysis: true})
		stream := func(r *bytes.Reader, opts ...treeclock.StreamOption) (time.Duration, *treeclock.StreamResult) {
			start := time.Now()
			res, err := treeclock.RunStream(info.Name, r, opts...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tcbench: %s: %v\n", info.Name, err)
				os.Exit(1)
			}
			return time.Since(start), res
		}
		elText, resText := stream(bytes.NewReader(text.Bytes()))
		elBin, resBin := stream(bytes.NewReader(binBuf.Bytes()), treeclock.StreamBinary())
		if resText.Summary.Total != mat.Pairs || resBin.Summary.Total != mat.Pairs {
			fmt.Fprintf(os.Stderr, "tcbench: %s: pair counts diverge (materialized %d, text %d, bin %d)\n",
				info.Name, mat.Pairs, resText.Summary.Total, resBin.Summary.Total)
			os.Exit(1)
		}
		fmt.Printf("  %-10s materialized %8.0f ev/ms   stream-text %8.0f ev/ms   stream-bin %8.0f ev/ms   %d pairs\n",
			info.Name, evPerMS(tr.Len(), mat.Elapsed), evPerMS(tr.Len(), elText), evPerMS(tr.Len(), elBin), mat.Pairs)
	}
}

// evPerMS reports events per millisecond at microsecond resolution.
func evPerMS(events int, d time.Duration) float64 {
	return float64(events) / (float64(d.Microseconds())/1000 + 1e-9)
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
