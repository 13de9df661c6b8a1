// Command benchmark measures the tree-clock engines end to end and layer
// by layer. Each run builds one workload from a seed, times every
// registry engine on it, checks that the results are correct, and
// prints every metric by name with its unit. The last line of standard
// output is a JSON object:
//
//	{"correct": true, "attempted": 48, "failed": 0, "metrics": {"eps.hb-tree": {"value": 1.5e7, "unit": "ev/s"}, ...}}
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh -workload mixed-bin -seed 1 [-seconds 10] [-trace 1] [-out results.json] [-spans spans.json]
//	bash benchmark/run.sh -workload all -seed 1 -out results.json
//	bash benchmark/run.sh -compare a.json b.json
//
// or, from this directory, go run . with the same flags. Flags may be
// given with one dash or two. With -trace 1 (or -spans) the run adds a
// traced pass per engine after the timed reps and prints the per-layer
// metrics instead of the end-to-end ones. See README.md for the
// workloads, the metrics and the run protocol.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"treeclock"
)

// setupRepeats is how often a run sets the workload up; setup_s is the
// median.
const setupRepeats = 3

// metric is one reported value. Throughput metrics report the best of
// their samples as Value and keep the rest of the distribution beside
// it.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median,omitempty"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	N      int     `json:"n,omitempty"`
}

// workloadResult is the outcome of one workload.
type workloadResult struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Events   int               `json:"events"`
	Reps     int               `json:"reps"`
	Ops      int               `json:"ops"`
	Failed   int               `json:"failed"`
	Failures []string          `json:"failures,omitempty"`
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
}

// report is the -out file.
type report struct {
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seconds    float64          `json:"seconds"`
	Traced     bool             `json:"traced"`
	Workloads  []workloadResult `json:"workloads"`
}

// config is one invocation's settings.
type config struct {
	seconds float64
	seed    int64
	traced  bool
	events  int    // overrides every workload's size when > 0
	dir     string // temporary directory for daemon sockets and spools
	rec     *recorder
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload name, or all")
		seed    = fs.Int64("seed", 1, "seed the workloads are generated from")
		seconds = fs.Float64("seconds", 10, "seconds of timed reps per workload")
		traced  = fs.Int("trace", 0, "1 adds the traced pass and prints per-layer metrics")
		out     = fs.String("out", "", "write the full results as JSON to this file")
		spans   = fs.String("spans", "", "write the traced pass's spans as JSON to this file (implies -trace 1)")
		compare = fs.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %v\n", fs.Args())
		return 2
	}
	var list []workload
	if *name == "all" {
		list = workloads
	} else if w, ok := findWorkload(*name); ok {
		list = []workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{seconds: *seconds, seed: *seed, traced: *traced == 1 || *spans != "", dir: dir}
	if cfg.traced {
		cfg.rec = newRecorder()
	}

	rep := report{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seconds: cfg.seconds, Traced: cfg.traced}
	for _, w := range list {
		res, err := runWorkload(w, cfg, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		printTable(stdout, res, cfg.traced)
		rep.Workloads = append(rep.Workloads, *res)
	}
	if *out != "" {
		if err := writeJSON(*out, &rep); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *spans != "" {
		if err := cfg.rec.write(*spans); err != nil {
			fmt.Fprintf(stderr, "benchmark: writing spans: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(summaryLine(rep.Workloads, cfg.traced))
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// valueUnit is a metric in the last output line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// summaryLine builds the last output line: the end-to-end metrics, or
// with tracing the per-layer ones. With several workloads each name is
// prefixed with "<workload>/".
func summaryLine(results []workloadResult, traced bool) resultLine {
	line := resultLine{Metrics: make(map[string]valueUnit)}
	for _, r := range results {
		line.Attempted += r.Ops
		line.Failed += r.Failed
		ms := r.EndToEnd
		if traced {
			ms = r.PerLayer
		}
		for name, m := range ms {
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			line.Metrics[name] = valueUnit{m.Value, m.Unit}
		}
	}
	line.Correct = line.Failed == 0
	return line
}

func printTable(w io.Writer, r *workloadResult, traced bool) {
	fmt.Fprintf(w, "workload %s: seed %d, %d events, %d reps, %d ops, %d failed\n",
		r.Workload, r.Seed, r.Events, r.Reps, r.Ops, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	list := func(ms map[string]metric) {
		for _, name := range sortedKeys(ms) {
			m := ms[name]
			if m.N > 0 {
				fmt.Fprintf(w, "  %-36s %14.6g %-13s median %.6g min %.6g max %.6g n %d\n", name, m.Value, m.Unit, m.Median, m.Min, m.Max, m.N)
			} else {
				fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
			}
		}
	}
	list(r.EndToEnd)
	if traced {
		list(r.PerLayer)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// tally counts operations and the ones that failed.
type tally struct {
	ops, failed int
	failures    []string
	log         io.Writer
}

// op records one operation; err is its error or failed check.
func (t *tally) op(what string, err error) {
	t.ops++
	if err == nil {
		return
	}
	t.failed++
	msg := fmt.Sprintf("%s: %v", what, err)
	fmt.Fprintf(t.log, "benchmark: FAILED %s\n", msg)
	if len(t.failures) < 20 {
		t.failures = append(t.failures, msg)
	}
}

// sameResult is the correctness check between two runs of one engine
// on one trace: the same event count, race summary and final vector
// times.
func sameResult(got, want *treeclock.StreamResult) error {
	switch {
	case got.Events != want.Events:
		return fmt.Errorf("%d events, want %d", got.Events, want.Events)
	case got.Summary != want.Summary:
		return fmt.Errorf("summary %+v, want %+v", got.Summary, want.Summary)
	case !reflect.DeepEqual(got.Timestamps, want.Timestamps):
		return errors.New("final timestamps differ")
	}
	return nil
}

// checkRun combines a run's error with its comparison to want.
func checkRun(got *treeclock.StreamResult, err error, want *treeclock.StreamResult) error {
	if err != nil {
		return err
	}
	if want == nil {
		return nil
	}
	return sameResult(got, want)
}

// runWorkload sets the workload up, warms every engine, times the
// interleaved reps and, when tracing, runs the traced pass.
func runWorkload(w workload, cfg config, log io.Writer) (*workloadResult, error) {
	events := w.events
	if cfg.events > 0 {
		events = cfg.events
	}
	t := &tally{log: log}

	// Set-up, several times; setup_s is the median. One set-up generates
	// and encodes the workload, starts the daemon, and makes one untimed
	// warm-up run per engine. The first set-up's warm-up results are the
	// reference every later run of that engine must reproduce.
	var (
		p          *prepared
		ref        map[string]*treeclock.StreamResult
		setupTimes []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if p != nil {
			p.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if p, err = setUp(w, events, cfg.seed, cfg.dir); err != nil {
			return nil, err
		}
		warm := make(map[string]*treeclock.StreamResult)
		for _, e := range engines {
			res, err := p.run(e)
			t.op(fmt.Sprintf("set-up %d warm-up %s", i, e), checkRun(res, err, ref[e]))
			if err == nil {
				warm[e] = res
			}
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if ref == nil {
			ref = warm
		}
	}
	defer p.close()
	for _, o := range orders {
		tree, vc := ref[o+"-tree"], ref[o+"-vc"]
		if tree != nil && vc != nil && tree.Summary != vc.Summary {
			t.op("warm-up "+o, fmt.Errorf("tree summary %+v, vc summary %+v", tree.Summary, vc.Summary))
		}
	}
	decoded := crossCheck(p, ref, t)

	eps, reps := timedReps(p, ref, cfg.seconds, t)
	r := &workloadResult{Workload: w.name, Seed: cfg.seed, Events: p.tr.Len(), Reps: reps, EndToEnd: make(map[string]metric)}
	for _, e := range engines {
		r.EndToEnd["eps."+e] = best("ev/s", eps[e])
	}
	setup := summarize("s", setupTimes)
	setup.Value = setup.Median
	r.EndToEnd["setup_s"] = setup

	if cfg.traced {
		layers, err := tracedPass(p, cfg, ref, decoded, r.EndToEnd, t)
		if err != nil {
			return nil, err
		}
		r.PerLayer = layers
	}
	r.Ops, r.Failed, r.Failures = t.ops, t.failed, t.failures
	return r, nil
}

// timedReps runs the timed phase: engines interleaved within each rep,
// a GC before each run, reps until the next one would overrun the time
// budget. It returns each engine's throughput samples and the rep count.
func timedReps(p *prepared, ref map[string]*treeclock.StreamResult, seconds float64, t *tally) (map[string][]float64, int) {
	n := float64(p.tr.Len())
	eps := make(map[string][]float64)
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var repDur time.Duration
	reps := 0
	for reps == 0 || time.Since(start)+repDur <= budget {
		repStart := time.Now()
		tree := make(map[string]*treeclock.StreamResult)
		for _, e := range engines {
			runtime.GC()
			t0 := time.Now()
			res, err := p.run(e)
			el := time.Since(t0)
			err = checkRun(res, err, ref[e])
			if err == nil {
				if o, clock, _ := strings.Cut(e, "-"); clock == "tree" {
					tree[o] = res
				} else if tr := tree[o]; tr != nil && tr.Summary != res.Summary {
					err = fmt.Errorf("summary %+v differs from %s-tree's %+v", res.Summary, o, tr.Summary)
				}
			}
			t.op(fmt.Sprintf("rep %d %s", reps, e), err)
			if err == nil {
				eps[e] = append(eps[e], n/el.Seconds())
			}
		}
		repDur = time.Since(repStart)
		reps++
	}
	return eps, reps
}

// crossCheck runs the checks that need a second code path: text input
// must agree with binary input, and the daemon's results with a library
// run and a Session push run. It returns the reference for runs over
// the decoded trace, which for text input are the binary runs.
func crossCheck(p *prepared, ref map[string]*treeclock.StreamResult, t *tally) map[string]*treeclock.StreamResult {
	switch p.w.path {
	case pathText:
		// The text scanner numbers threads in order of first appearance
		// and the binary format keeps the generator's ids, so the final
		// vector times of the two are permutations of each other; the
		// event count and the race summary must match exactly.
		decoded := make(map[string]*treeclock.StreamResult)
		for _, e := range engines {
			res, err := p.runBinary(e)
			if want := ref[e]; err == nil && want != nil && (res.Events != want.Events || res.Summary != want.Summary) {
				err = fmt.Errorf("binary: %d events, summary %+v; text: %d events, summary %+v", res.Events, res.Summary, want.Events, want.Summary)
			}
			t.op("binary vs text "+e, err)
			if err == nil {
				decoded[e] = res
			}
		}
		return decoded
	case pathDaemon:
		for _, e := range engines {
			res, err := treeclock.RunStreamSource(e, treeclock.NewTraceReplayer(p.tr))
			t.op("library vs daemon "+e, checkRun(res, err, ref[e]))
			res, err = pushSession(e, p.tr.Events, nil)
			t.op("session vs daemon "+e, checkRun(res, err, ref[e]))
		}
	}
	return ref
}

// pushSession runs one engine as a push-mode Session fed 512-event
// batches, with a span around each Feed and the Result when rec is not
// nil.
func pushSession(engine string, events []treeclock.Event, rec *recorder) (*treeclock.StreamResult, error) {
	s, err := treeclock.Open(engine)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	const batch = 512
	for i := 0; i < len(events); i += batch {
		id := rec.begin(spanFeed)
		err := s.Feed(events[i:min(i+batch, len(events))])
		rec.end(id)
		if err != nil {
			return nil, err
		}
	}
	id := rec.begin(spanFinish)
	res, err := s.Result()
	rec.end(id)
	return res, err
}

// summarize reports a sample's median, min, max and size; Value is
// left for the caller to choose.
func summarize(unit string, xs []float64) metric {
	m := metric{Unit: unit, N: len(xs)}
	if len(xs) == 0 {
		return m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m.Min, m.Max = s[0], s[len(s)-1]
	if len(s)%2 == 1 {
		m.Median = s[len(s)/2]
	} else {
		m.Median = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return m
}

// best is a throughput metric: the highest sample is the headline.
func best(unit string, xs []float64) metric {
	m := summarize(unit, xs)
	m.Value = m.Max
	return m
}
