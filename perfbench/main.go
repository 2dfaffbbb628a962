// Command perfbench is ActorProf's end-to-end benchmark. It drives the
// public entry points the trianglecount, actorprof, actorprof whatif and
// actorprofd commands call, checks every output, and prints one JSON
// result line.
//
//	perfbench --workload tc-cyclic-2n --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	tc-cyclic-2n  triangle counting (R-MAT scale 12, 32 PEs, 2 nodes, 1D
//	              Cyclic) with full profiling and schedule capture, then a
//	              view of every standard plot and one what-if comparison
//	isort-2n      ISx integer sort (100k keys/PE, 32 PEs, 2 nodes) with
//	              full profiling and no capture, then the same view
//	serve-mix     a closed loop of 2 in-process clients over serve's
//	              handler: plots, time windows, run listings, what-ifs
//
// With --trace 0 the run is uninstrumented and reports the end-to-end
// metrics (see README.md). With --trace 1 it runs the workload once
// untraced and once traced (spans, a CPU profile, runtime/metrics and
// the library's own counters) and reports the per-layer metrics plus
// the tracing overhead; it also writes the spans as Chrome Trace Event
// JSON and the per-layer table under --out.
//
// The last line of standard output is always the JSON result; a failed
// output check makes the exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// matches reports whether m holds exactly the metrics in want, with
// their units, as finite numbers (non-zero ones when nonZero is set).
func (m metrics) matches(want []metricSpec, nonZero bool) error {
	if len(m) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(m), len(want))
	}
	for _, w := range want {
		got, ok := m[w.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s missing", w.Name)
		case got.Unit != w.Unit:
			return fmt.Errorf("metric %s in %s, want %s", w.Name, got.Unit, w.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (nonZero && got.Value == 0):
			return fmt.Errorf("metric %s is %v", w.Name, got.Value)
		}
	}
	return nil
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// checks counts output checks; every failure is also logged. Clients
// of the serve workload check concurrently.
type checks struct {
	mu                sync.Mutex
	attempted, failed int64
	log               io.Writer
}

func (c *checks) check(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintln(c.log, "check failed:", err)
	}
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// work is a scratch directory for trace files; out receives the
	// traced run's span file and per-layer table.
	work, out string
	log       io.Writer
	// perLayer lists the traced run's metrics, as BENCHMARK.json does.
	perLayer []metricSpec
}

// workload runs one named workload. Untraced runs fill the end-to-end
// metrics, traced runs the per-layer ones.
type workload struct {
	name string
	run  func(cfg runConfig, c *checks, m metrics) error
}

var workloads = []workload{
	{"tc-cyclic-2n", runTC},
	{"isort-2n", runISort},
	{"serve-mix", runServeMix},
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 30, "measured seconds")
		traced  = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = fs.String("out", ".bench_build/out", "directory for scratch traces and traced-run outputs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	// The benchmark runs from the root of the repository, next to the
	// definition of the metrics it must report.
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg := runConfig{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traced == 1,
		work:     work,
		out:      filepath.Join(*out, fmt.Sprintf("%s-seed%d", w.name, *seed)),
		log:      stderr,
		perLayer: spec.PerLayer,
	}
	c := &checks{log: stderr}
	m := metrics{}
	want, nonZero := spec.endToEnd(), true
	if cfg.trace {
		want, nonZero = spec.PerLayer, false
	}
	if err := w.run(cfg, c, m); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := m.matches(want, nonZero); err != nil {
		fmt.Fprintln(stderr, "perfbench:", w.name, err)
		return 1
	}
	printMetrics(stdout, m)
	res := result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if c.failed > 0 || c.attempted == 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// printMetrics prints one "name value unit" line per metric, sorted.
func printMetrics(w io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
