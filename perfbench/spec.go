package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is BENCHMARK.json: how to run the benchmark, its workloads
// and the metrics it reports. The program reads the metric lists from it
// at start and refuses to print a result that does not match them.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eSpec      `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec names one metric as BENCHMARK.json lists it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readSpec reads and strictly decodes a BENCHMARK.json file.
func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// endToEnd returns the end-to-end metrics without their bounds.
func (s *benchSpec) endToEnd() []metricSpec {
	var out []metricSpec
	for _, m := range s.EndToEnd {
		out = append(out, metricSpec{m.Name, m.Unit, m.Better})
	}
	return out
}

// cpuLayers are the layers CPU samples are attributed to (layerOf); each
// reports <layer>.cpu_frac.
var cpuLayers = []string{
	"shmem", "conveyor", "actor", "papi", "sim", "capture", "trace", "apps", "graph",
	"core", "viz", "whatif", "serve", "gc", "sched", "other",
}
