package main

// -compare a.json b.json: the regression gate between two -out files.
// Each end-to-end metric of BENCHMARK.json may get worse from a to b by
// at most its bound; a workload may not fail more operations in b.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// metricSpec is one metric entry of BENCHMARK.json; per-layer metrics
// have no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchConfig is the part of BENCHMARK.json the gate and the tests read.
type benchConfig struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadConfig reads BENCHMARK.json from the working directory or the
// nearest parent that has one.
func loadConfig() (*benchConfig, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var c benchConfig
			if err := json.Unmarshal(data, &c); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &c, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns 1 when any row fails.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	byName := make(map[string]*workloadResult)
	for i := range b.Workloads {
		byName[b.Workloads[i].Workload] = &b.Workloads[i]
	}
	failed := 0
	row := func(workload, name string, va, vb, ratio float64, ok bool) {
		verdict := "pass"
		if !ok {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(stdout, "%-18s %-24s %14.6g %14.6g %8.4f  %s\n", workload, name, va, vb, ratio, verdict)
	}
	fmt.Fprintf(stdout, "%-18s %-24s %14s %14s %8s  %s\n", "workload", "metric", "a", "b", "b/a", "verdict")
	for _, wa := range a.Workloads {
		wb := byName[wa.Workload]
		if wb == nil {
			row(wa.Workload, "(missing in b)", 0, 0, 0, false)
			continue
		}
		for _, m := range cfg.EndToEnd {
			ma, okA := wa.EndToEnd[m.Name]
			mb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB || ma.Value == 0 {
				row(wa.Workload, m.Name, ma.Value, mb.Value, 0, false)
				continue
			}
			ratio := mb.Value / ma.Value
			ok := ratio <= 1+m.Bound
			if m.Better == "higher" {
				ok = ratio >= 1-m.Bound
			}
			row(wa.Workload, m.Name, ma.Value, mb.Value, ratio, ok)
		}
		row(wa.Workload, "failed", float64(wa.Failed), float64(wb.Failed), 0, wb.Failed <= wa.Failed)
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "%d rows failed\n", failed)
		return 1
	}
	return 0
}
