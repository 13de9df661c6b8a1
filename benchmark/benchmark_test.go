package main

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// testEvents is the workload size of the test. Below about 40k events
// star-k256 is still in its start-up phase, where the tree clocks of
// 256 fresh threads cost a fixed ~65k entries and TCWork exceeds three
// times VTWork (3.4 at 20k events, 2.2 at 50k, 1.75 at 1M).
const testEvents = 50_000

// TestWorkloads runs every workload at a small size, one rep, untraced
// and traced, and checks the outputs against BENCHMARK.json.
func TestWorkloads(t *testing.T) {
	spec, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	var untraced []workloadResult
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 1, events: testEvents, dir: t.TempDir()}
			plain, err := runWorkload(w, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			cfg.traced, cfg.rec = true, newRecorder()
			traced, err := runWorkload(w, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*workloadResult{plain, traced} {
				if r.Failed != 0 || r.Ops == 0 || r.Reps != 1 {
					t.Errorf("traced=%v: %d of %d ops failed over %d reps: %v", r.PerLayer != nil, r.Failed, r.Ops, r.Reps, r.Failures)
				}
			}
			for _, m := range spec.EndToEnd {
				checkMetric(t, "untraced", plain.EndToEnd, m.Name, m.Unit)
			}
			for _, m := range spec.PerLayer {
				checkMetric(t, "traced", traced.PerLayer, m.Name, m.Unit)
			}
			if a, b := sortedKeys(plain.EndToEnd), sortedKeys(traced.EndToEnd); !slices.Equal(a, b) {
				t.Errorf("end-to-end names differ: untraced %v, traced %v", a, b)
			}
			if got := sortedKeys(summaryLine([]workloadResult{*plain}, false).Metrics); !slices.Equal(got, specNames(spec.EndToEnd)) {
				t.Errorf("untraced result line carries %v", got)
			}
			if got := sortedKeys(summaryLine([]workloadResult{*traced}, true).Metrics); !slices.Equal(got, specNames(spec.PerLayer)) {
				t.Errorf("traced result line carries %v", got)
			}
			if len(cfg.rec.spans) == 0 {
				t.Error("the traced pass recorded no spans")
			}
			untraced = append(untraced, *plain)
		})
	}

	// The gate passes a regression of eps.hb-tree just inside its bound,
	// fails one just beyond it, and fails a workload that failed more
	// operations.
	t.Run("compare", func(t *testing.T) {
		var bound float64
		for _, m := range spec.EndToEnd {
			if m.Name == "eps.hb-tree" {
				bound = m.Bound
			}
		}
		dir := t.TempDir()
		write := func(name string, factor float64, extraFailed int) string {
			r := report{Workloads: make([]workloadResult, len(untraced))}
			for i, w := range untraced {
				w.EndToEnd = make(map[string]metric)
				for name, m := range untraced[i].EndToEnd {
					w.EndToEnd[name] = m
				}
				m := w.EndToEnd["eps.hb-tree"]
				m.Value *= factor
				w.EndToEnd["eps.hb-tree"] = m
				w.Failed += extraFailed
				r.Workloads[i] = w
			}
			path := filepath.Join(dir, name)
			if err := writeJSON(path, &r); err != nil {
				t.Fatal(err)
			}
			return path
		}
		base := write("base.json", 1, 0)
		for _, c := range []struct {
			name        string
			factor      float64
			extraFailed int
			want        int
		}{
			{"same", 1, 0, 0},
			{"inside the bound", 1 - bound + 0.05, 0, 0},
			{"beyond the bound", 1 - bound - 0.05, 0, 1},
			{"more failures", 1, 1, 1},
		} {
			var out bytes.Buffer
			if code := compareFiles(base, write(c.name+".json", c.factor, c.extraFailed), &out, io.Discard); code != c.want {
				t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.want, out.String())
			}
		}
	})
}

func checkMetric(t *testing.T, pass string, ms map[string]metric, name, unit string) {
	t.Helper()
	m, ok := ms[name]
	switch {
	case !ok:
		t.Errorf("%s: metric %s not emitted", pass, name)
	case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
		t.Errorf("%s: metric %s = %v", pass, name, m.Value)
	case m.Unit == "" || m.Unit != unit:
		t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", pass, name, m.Unit, unit)
	}
}

func specNames(ms []metricSpec) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}
