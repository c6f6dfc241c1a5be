package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

const benchmarkFileName = "BENCHMARK.json"

// benchmarkFile is BENCHMARK.json: the workloads, and the metrics with
// their units, directions and (end-to-end only) regression bounds.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the base median by which an end-to-end metric
	// may worsen before a change counts as a regression; zero for per-layer
	// metrics, which have none.
	Bound float64 `json:"bound,omitempty"`
}

// layerMoves names, for each per-layer metric, the end-to-end metric it
// should move and the workload on which it moves it — what a change that
// improves the layer has to show. BENCHMARK.json allows no extra keys, so
// the mapping lives here; a test keeps the two in step.
var layerMoves = map[string]struct{ metric, workload string }{
	"sim.run_ms_p50":            {"op_p50_ms", "core-long"},
	"bench.trace_overhead_pct":  {"op_p50_ms", "cluster-mixed"},
	"workload.build_ms":         {"setup_s", "core-long"},
	"fsim.ns_per_inst":          {"sim_minst_per_s", "core-long"},
	"inspector.ns_per_inst":     {"op_p50_ms", "artifacts"},
	"cache.new_us":              {"cells_per_s", "sweep-short"},
	"cache.new_kb":              {"alloc_mib_per_cell", "sweep-short"},
	"cache.ns_per_access":       {"sim_minst_per_s", "core-long"},
	"pipeline.new_us":           {"cells_per_s", "sweep-short"},
	"pipeline.new_kb":           {"alloc_mib_per_cell", "sweep-short"},
	"pipeline.new_allocs":       {"alloc_mib_per_cell", "sweep-short"},
	"pipeline.ns_per_cycle":     {"sim_minst_per_s", "core-long"},
	"pipeline.self_ns_per_inst": {"sim_minst_per_s", "core-long"},
	"constable.overhead_pct":    {"sim_minst_per_s", "core-long"},
	"sim.kb_per_run":            {"alloc_mib_per_cell", "sweep-short"},
	"sim.allocs_per_run":        {"cells_per_s", "sweep-short"},
	"sim.envelope_bytes":        {"cells_per_s", "cluster-mixed"},
	"sim.envelope_encode_us":    {"cells_per_s", "sweep-short"},
	"sim.envelope_decode_us":    {"cells_per_s", "cluster-mixed"},
	"sim.result_clone_us":       {"cells_per_s", "sweep-short"},
	"service.hash_us":           {"cells_per_s", "sweep-short"},
	"service.open_ms":           {"setup_s", "sweep-short"},
	"http.roundtrip_us":         {"op_p50_ms", "cluster-mixed"},
	"worker.batch_us_per_cell":  {"cells_per_s", "cluster-mixed"},
}

// loadBenchmark reads and decodes BENCHMARK.json, refusing unknown keys.
func loadBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// findRoot returns the nearest directory at or above the working directory
// that holds BENCHMARK.json: the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, benchmarkFileName)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New(benchmarkFileName + " not found in the working directory or above it")
		}
		dir = parent
	}
}
