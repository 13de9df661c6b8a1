package main

// The ingest experiment measures end-to-end ingestion throughput —
// parse + analyze, the events/second metric the CSST line of work
// reports — for every registry engine across the two trace formats and
// the three consumption modes: scalar (a source without batch support,
// one interface call per event: trace.ReadBatch gathers the Next calls
// into the driver loop's batches), batch (NextBatch into the driver
// loop's buffer, engine inline) and pipeline (WithWorkers(1): the
// driver decodes while one unsharded replica analyzes in a worker
// goroutine). With -json the results are also written as a
// machine-readable report (BENCH_ingest.json) so the repo's perf
// trajectory is tracked release over release.

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"treeclock"
	"treeclock/internal/core"
	"treeclock/internal/engine"
	"treeclock/internal/gen"
	"treeclock/internal/trace"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
	"treeclock/internal/wcp"
)

// ingestTraceInfo describes the measured workload.
type ingestTraceInfo struct {
	Name        string `json:"name"`
	Events      int    `json:"events"`
	Threads     int    `json:"threads"`
	Locks       int    `json:"locks"`
	Vars        int    `json:"vars"`
	TextBytes   int    `json:"text_bytes"`
	BinaryBytes int    `json:"binary_bytes"`
}

// ingestResult is one engine × format × mode measurement. For the
// wcp engines each cell is measured twice — once per weak-clock
// transport — and Weak says which: "sparse" is the registry engine's
// segment representation, "flat" the Θ(threads) vector baseline it is
// compared against (built directly, see flatIngestRun). The field is
// empty for engines without a weak transport.
type ingestResult struct {
	Trace          string  `json:"trace"`
	Engine         string  `json:"engine"`
	Format         string  `json:"format"`
	Mode           string  `json:"mode"`
	Weak           string  `json:"weak,omitempty"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	Pairs          uint64  `json:"pairs"`
}

// ingestReport is the -json payload.
type ingestReport struct {
	Experiment string            `json:"experiment"`
	GoVersion  string            `json:"go_version"`
	Repeats    int               `json:"repeats"`
	Traces     []ingestTraceInfo `json:"traces"`
	Results    []ingestResult    `json:"results"`
}

// ingestModes are the consumption strategies under comparison. The
// third keeps the name "pipeline" so fresh rows line up with the
// committed BENCH_ingest.json, whose pipeline rows timed the retired
// pipelined decoder doing the same overlap.
var ingestModes = []string{"scalar", "batch", "pipeline"}

// nextOnly hides a source's batch methods behind a plain EventSource,
// so trace.ReadBatch fills each batch one Next call at a time: the
// scalar cells.
type nextOnly struct{ src treeclock.EventSource }

func (s nextOnly) Next() (treeclock.Event, bool) { return s.src.Next() }
func (s nextOnly) Err() error                    { return s.src.Err() }

// ingestRun streams data through the registry engine in one
// consumption mode, or through the flat weak-clock baseline of a wcp
// engine when weak is "flat". The scalar and batch rows read through
// RunStreamSource over a scanner, which runs the engine inline on any
// host (RunStream would put text input behind a worker on a multi-core
// one); the pipeline row asks for the worker explicitly.
func ingestRun(mode, engine, weak string, bin bool, data []byte) (*treeclock.StreamResult, error) {
	var src treeclock.EventSource = treeclock.NewTraceScanner(bytes.NewReader(data))
	if bin {
		src = treeclock.NewBinaryTraceScanner(bytes.NewReader(data))
	}
	if weak == "flat" {
		return flatIngestRun(mode, engine, src)
	}
	switch mode {
	case "scalar":
		return treeclock.RunStreamSource(engine, nextOnly{src})
	case "pipeline":
		return treeclock.RunStreamSource(engine, src, treeclock.WithWorkers(1))
	}
	return treeclock.RunStreamSource(engine, src)
}

// flatIngestRun is ingestRun for the flat weak-clock baseline: the
// flat-vector WCP semantics bound to engine.New (the way runWCPDirect
// builds its engine), fed by the same decoders in the scalar and batch
// modes. It has no worker-group row: the baseline is not a registry
// engine, so no Session runs it.
func flatIngestRun(mode, engineName string, src trace.EventSource) (*treeclock.StreamResult, error) {
	if mode == "scalar" {
		src = nextOnly{src}
	}
	if strings.HasSuffix(engineName, "-tree") {
		return runFlatWCP(engineName, core.Factory(nil), src)
	}
	return runFlatWCP(engineName, vc.Factory(nil), src)
}

// runFlatWCP drains src through a flat-transport WCP engine with
// analysis on.
func runFlatWCP[C vt.Clock[C]](engineName string, f vt.Factory[C], src trace.EventSource) (*treeclock.StreamResult, error) {
	rt := engine.New(wcp.NewSemanticsFlat[C](), f)
	acc := rt.EnableAnalysis()
	if err := rt.ProcessSource(src); err != nil {
		return nil, err
	}
	return &treeclock.StreamResult{Engine: engineName, Events: rt.Events(), Summary: acc.Summary()}, nil
}

// ingestExperiment runs the sweep and optionally writes the JSON
// report. events sizes the generated workloads; repeats picks the best
// of N timings per cell (minimum, the standard for throughput).
func ingestExperiment(events, repeats int, jsonPath string) {
	if repeats < 1 {
		repeats = 1
	}
	workloads := []*trace.Trace{
		gen.Mixed(gen.Config{
			Name: "ingest-mixed", Threads: 32, Locks: 24, Vars: 4096,
			Events: events, Seed: 11, SyncFrac: 0.25,
			LockAffinity: 3, Groups: 6, HotFrac: 0.06,
		}),
		gen.Star(32, events/2, 7),
	}
	report := ingestReport{
		Experiment: "ingest",
		GoVersion:  runtime.Version(),
		Repeats:    repeats,
	}
	for _, tr := range workloads {
		var text, bin bytes.Buffer
		if err := trace.WriteText(&text, tr); err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
			os.Exit(1)
		}
		if err := trace.WriteBinary(&bin, tr); err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
			os.Exit(1)
		}
		report.Traces = append(report.Traces, ingestTraceInfo{
			Name: tr.Meta.Name, Events: tr.Len(), Threads: tr.Meta.Threads,
			Locks: tr.Meta.Locks, Vars: tr.Meta.Vars,
			TextBytes: text.Len(), BinaryBytes: bin.Len(),
		})
		fmt.Printf("Ingestion sweep over %q: %d events, %d threads (text %d bytes, binary %d bytes):\n",
			tr.Meta.Name, tr.Len(), tr.Meta.Threads, text.Len(), bin.Len())
		formats := []struct {
			name string
			data []byte
			bin  bool
		}{
			{"text", text.Bytes(), false},
			{"bin", bin.Bytes(), true},
		}
		for _, name := range treeclock.Engines() {
			// The wcp engines measure both weak-clock transports; the
			// two must report identical pairs (they are differentially
			// pinned byte for byte), so the consistency check spans the
			// variants too.
			variants := []string{""}
			if strings.HasPrefix(name, "wcp-") {
				variants = []string{"sparse", "flat"}
			}
			for _, f := range formats {
				var pairs uint64
				first := true
				for _, weak := range variants {
					label := name
					if weak != "" {
						label += "/" + weak
					}
					line := fmt.Sprintf("  %-17s %-5s", label, f.name)
					for _, mode := range ingestModes {
						if weak == "flat" && mode == "pipeline" {
							continue
						}
						res := measureIngest(tr, name, weak, f.name, mode, f.bin, f.data, repeats)
						if first {
							pairs, first = res.Pairs, false
						} else if res.Pairs != pairs {
							fmt.Fprintf(os.Stderr, "tcbench: %s/%s: %s/%s mode diverges (%d pairs, want %d)\n",
								name, f.name, mode, weak, res.Pairs, pairs)
							os.Exit(1)
						}
						report.Results = append(report.Results, res)
						line += fmt.Sprintf("   %s %8.0f ev/ms (%5.1f ns/ev, %5.3f allocs/ev)",
							mode, res.EventsPerSec/1000, res.NsPerEvent, res.AllocsPerEvent)
					}
					fmt.Println(line + fmt.Sprintf("   %d pairs", pairs))
				}
			}
		}
	}
	if jsonPath != "" {
		writeJSONReport(jsonPath, &report, len(report.Results))
	}
}

// measureIngest times one cell of tr, reporting the best run and its
// allocation count per event (via runtime.MemStats deltas; the GC's
// own allocations make the figure an upper bound). A run that streams
// a different number of events than tr holds exits 1.
func measureIngest(tr *trace.Trace, engine, weak, format, mode string, bin bool, data []byte, repeats int) ingestResult {
	var (
		best   time.Duration = -1
		allocs float64
		res    *treeclock.StreamResult
	)
	for i := 0; i < repeats; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		r, err := ingestRun(mode, engine, weak, bin, data)
		el := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: %s/%s/%s: %v\n", engine, format, mode, err)
			os.Exit(1)
		}
		if r.Events != uint64(tr.Len()) {
			fmt.Fprintf(os.Stderr, "tcbench: %s/%s/%s: streamed %d events, want %d\n", engine, format, mode, r.Events, tr.Len())
			os.Exit(1)
		}
		if best < 0 || el < best {
			best = el
			allocs = float64(after.Mallocs - before.Mallocs)
			res = r
		}
	}
	n := float64(res.Events)
	if n == 0 {
		// A degenerate workload (tiny -stream-events) must not poison
		// the report with Inf/NaN, which JSON cannot encode.
		return ingestResult{Trace: tr.Meta.Name, Engine: engine, Format: format, Mode: mode, Weak: weak}
	}
	return ingestResult{
		Trace:          tr.Meta.Name,
		Engine:         engine,
		Format:         format,
		Mode:           mode,
		Weak:           weak,
		EventsPerSec:   n / best.Seconds(),
		NsPerEvent:     float64(best.Nanoseconds()) / n,
		AllocsPerEvent: allocs / n,
		Pairs:          res.Summary.Total,
	}
}
