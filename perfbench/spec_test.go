package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestBenchmarkJSONRoundTrips(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := readSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("round trip changed the spec:\n%+v\n%+v", spec, back)
	}
}

// BENCHMARK.json must describe what this program reports.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames())
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	listed := map[string]bool{}
	for _, m := range spec.PerLayer {
		listed[m.Name] = true
	}
	for _, l := range cpuLayers {
		if !listed[l+".cpu_frac"] {
			t.Errorf("per_layer lacks %s.cpu_frac", l)
		}
	}
	if _, err := readSpec("testdata/does-not-exist.json"); err == nil {
		t.Error("reading a missing spec succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"command":["x"],"extra":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSpec(bad); err == nil {
		t.Error("a spec with an unknown key was accepted")
	}
}

// A result is printed only when its metrics are the ones BENCHMARK.json
// lists, with their units, and none is zero.
func TestResultMustMatchTheSpec(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := spec.endToEnd()
	full := func() metrics {
		m := metrics{}
		for _, w := range want {
			m.set(w.Name, 1, w.Unit)
		}
		return m
	}
	if err := full().matches(want, true); err != nil {
		t.Fatal(err)
	}
	m := full()
	m.set(want[0].Name, 0, want[0].Unit)
	if m.matches(want, true) == nil {
		t.Error("a zero metric passed")
	}
	m = full()
	m.set(want[0].Name, 1, "furlong")
	if m.matches(want, true) == nil {
		t.Error("a metric in the wrong unit passed")
	}
	m = full()
	delete(m, want[0].Name)
	m.set("extra", 1, "s")
	if m.matches(want, true) == nil {
		t.Error("a metric set with an unlisted name passed")
	}

	var out bytes.Buffer
	// Tests run in perfbench/, where there is no BENCHMARK.json.
	args := []string{"--workload", "isort-2n", "--out", t.TempDir()}
	if code := mainErr(args, &out, io.Discard); code == 0 || out.Len() != 0 {
		t.Errorf("without its spec the program exited %d and printed %q", code, out.String())
	}
}
