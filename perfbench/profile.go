package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/core"
	"actorprof/internal/graph"
	"actorprof/internal/papi"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
	"actorprof/internal/whatif"
)

// The machine both profile workloads run on: 32 PEs, 16 per node, so the
// conveyor routes over a 2D mesh with both local and network sends.
var machine2n = sim.Machine{NumPEs: 32, PEsPerNode: 16}

// Set-up runs in two rounds, one before the timed part of a run and one
// after it, each at least setupMinReps times and setupMinSeconds long;
// setup_s is the median over both. The host's speed drifts over seconds,
// so one round at the start would time one moment of it, where a median
// over the whole run is as steady as the run's other medians.
const (
	setupMinReps    = 3
	setupMinSeconds = 1.5
)

// appInput is one generated application input, ready to profile.
type appInput struct {
	name    string
	machine sim.Machine
	// msgs counts the application messages from the input itself
	// (wedges for triangle counting; keys plus counts for isort).
	msgs int64
	body core.App
	// check compares the last run's outputs with the serial reference.
	check func() error
	// capture records the what-if schedule; whatif also runs one
	// comparison on it.
	capture bool
	// setup splits set-up time into input generation and the serial
	// reference, in seconds.
	genS, refS float64
}

// tcInput generates the triangle-counting input: an R-MAT graph, its
// 1D Cyclic distribution and the serial triangle count.
func tcInput(seed uint64, scale int, m sim.Machine) (*appInput, error) {
	t0 := time.Now()
	g, err := graph.GenerateRMAT(graph.Graph500(scale, 16, seed))
	if err != nil {
		return nil, err
	}
	dist, err := core.DistCyclic.Build(g, m.NumPEs)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	want := g.CountTrianglesSerial()
	t2 := time.Now()
	counts := make([]int64, m.NumPEs)
	return &appInput{
		name:    "tc",
		machine: m,
		msgs:    g.Wedges(),
		body: func(rt *actor.Runtime) error {
			got, err := apps.TriangleCount(rt, g, dist)
			counts[rt.PE().Rank()] = got
			return err
		},
		check: func() error {
			for pe, c := range counts {
				if c != want {
					return fmt.Errorf("triangle count on PE %d is %d, serial reference %d", pe, c, want)
				}
			}
			return nil
		},
		capture: true,
		genS:    t1.Sub(t0).Seconds(),
		refS:    t2.Sub(t1).Seconds(),
	}, nil
}

// isortInput generates the isort input: the key configuration (PEs draw
// their keys from the seed) and the serial reference buckets.
func isortInput(seed uint64, keysPerPE int, m sim.Machine) (*appInput, error) {
	cfg := apps.ISortConfig{KeysPerPE: keysPerPE, BucketWidth: 1 << 16, Seed: seed}
	t0 := time.Now()
	want := apps.ISortSerial(m.NumPEs, cfg)
	t1 := time.Now()
	results := make([]apps.ISortResult, m.NumPEs)
	npes := int64(m.NumPEs)
	return &appInput{
		name:    "isort",
		machine: m,
		msgs:    npes*int64(keysPerPE) + npes*npes,
		body: func(rt *actor.Runtime) error {
			res, err := apps.ISort(rt, cfg)
			results[rt.PE().Rank()] = res
			return err
		},
		check: func() error {
			for pe, res := range results {
				if len(res.Keys) != len(want[pe]) {
					return fmt.Errorf("isort PE %d bucket has %d keys, serial reference %d", pe, len(res.Keys), len(want[pe]))
				}
				for i, k := range res.Keys {
					if k != want[pe][i] {
						return fmt.Errorf("isort PE %d key %d is %d, serial reference %d", pe, i, k, want[pe][i])
					}
				}
			}
			return nil
		},
		refS: t1.Sub(t0).Seconds(),
	}, nil
}

// setupRound runs one round of set-ups and appends their wall times to
// times. once makes one set-up and returns the time it took.
func setupRound(times []float64, once func() (time.Duration, error)) ([]float64, error) {
	start := time.Now()
	for n := 0; n < setupMinReps || time.Since(start).Seconds() < setupMinSeconds; n++ {
		d, err := once()
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	return times, nil
}

// session is one profiling session as a user runs it: the profiled run,
// the trace (and schedule) write, the view, and on captured runs one
// what-if comparison.
type session struct {
	run, traceWrite, schedWrite, readSummary, render, whatif time.Duration
	allocBytes                                               float64 // heap bytes allocated by run + write
	traceBytes, schedBytes                                   int64   // on disk
	svgBytes                                                 int64
	set                                                      *trace.Set
	sched                                                    *sim.Schedule
	summary                                                  *trace.Summary
}

// profile is the time to a profile on disk: the run and the writes.
func (s *session) profile() time.Duration { return s.run + s.traceWrite + s.schedWrite }

// total is the whole session's wall time.
func (s *session) total() time.Duration { return s.profile() + s.readSummary + s.render + s.whatif }

// sessionOpts instruments a session in the traced run.
type sessionOpts struct {
	tr      *tracer
	parent  int
	tid     int
	api     *shmem.APIProfile
	onRun   func(start bool) // brackets the profiled run (CPU profile)
	keepAll bool             // keep set, schedule and summary for the caller
}

// whatifPerturbation is the fixed hypothesis every captured session
// projects: a network twice as fast.
func whatifPerturbation(s *sim.Schedule) whatif.Perturbation {
	return whatif.Perturbation{Cost: whatif.ScaledCost(s.Cost, whatif.CostScales{Network: 0.5})}
}

// runSession profiles in once into dir and checks every output.
func runSession(in *appInput, dir string, c *checks, o sessionOpts) (*session, error) {
	tr := o.tr
	s := &session{}

	before := readRuntime()
	id := tr.begin("core.Run", o.parent, o.tid, 0)
	if o.onRun != nil {
		o.onRun(true)
	}
	var err error
	s.set, s.sched, s.run, err = profileRun(in, true, o.api)
	if o.onRun != nil {
		o.onRun(false)
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	c.check(in.check())

	id = tr.begin("trace.WriteFiles", o.parent, o.tid, 0)
	t0 := time.Now()
	err = s.set.WriteFiles(dir)
	s.traceWrite = time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if s.sched != nil {
		id = tr.begin("whatif.WriteScheduleFile", o.parent, o.tid, 0)
		t0 = time.Now()
		err = whatif.WriteScheduleFile(dir, s.sched)
		s.schedWrite = time.Since(t0)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	s.allocBytes = delta(before, readRuntime(), rmAllocBytes)
	if s.traceBytes, s.schedBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	if !o.keepAll {
		s.set = nil // let the view run without the run's records alive
	}

	id = tr.begin("view", o.parent, o.tid, 0)
	err = viewTrace(s, dir, in.msgs, c, tr, id, o.tid)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	if s.sched != nil {
		id = tr.begin("whatif.Compare", o.parent, o.tid, 0)
		t0 = time.Now()
		_, err := whatif.Compare(s.sched, whatifPerturbation(s.sched))
		s.whatif = time.Since(t0)
		tr.end(id)
		c.check(err)
	}
	if !o.keepAll {
		s.sched, s.summary = nil, nil
	}
	return s, nil
}

// viewTrace is what `actorprof <dir>` does: read the trace as a Summary
// and render every standard plot as SVG. It checks that the summary
// holds every application message and that every document is an SVG.
func viewTrace(s *session, dir string, msgs int64, c *checks, tr *tracer, parent, tid int) error {
	id := tr.begin("trace.ReadSummary", parent, tid, 0)
	t0 := time.Now()
	sum, _, err := trace.ReadSummary(dir, trace.ReadOptions{})
	s.readSummary = time.Since(t0)
	tr.end(id)
	if err != nil {
		return err
	}
	s.summary = sum
	if got := sum.LogicalMatrix().Total(); got != msgs {
		c.check(fmt.Errorf("trace holds %d logical sends, input has %d messages", got, msgs))
	} else {
		c.check(nil)
	}

	id = tr.begin("viz.RenderSVG", parent, tid, 0)
	t0 = time.Now()
	docs, err := renderStandardPlots(sum)
	s.render = time.Since(t0)
	tr.end(id)
	if err != nil {
		return err
	}
	s.svgBytes = 0
	for name, doc := range docs {
		s.svgBytes += int64(len(doc))
		c.check(checkSVG(name, []byte(doc)))
	}
	return nil
}

// renderStandardPlots renders every plot `actorprof <dir>` renders by
// default for this trace, keyed by the SVG file name it would write.
func renderStandardPlots(s *trace.Summary) (map[string]string, error) {
	type plot interface{ RenderSVG() (string, error) }
	plots := map[string]plot{}
	if s.Config.Logical {
		plots["logical_heatmap.svg"] = core.LogicalHeatmap(s, "Logical Trace (pre-aggregation sends)")
		plots["logical_violin.svg"] = core.LogicalViolin(s, "Logical sends/recvs per PE (quartiles)")
	}
	if s.Config.Physical {
		plots["physical_heatmap.svg"] = core.PhysicalHeatmap(s, "Physical Trace (post-aggregation buffers)")
		plots["physical_violin.svg"] = core.PhysicalViolin(s, "Physical buffers per PE (quartiles)")
		if s.NumPEs > s.PEsPerNode {
			plots["node_heatmap.svg"] = core.NodeHeatmap(s, "Node-level network hotspots")
		}
	}
	if len(s.Config.PAPIEvents) > 0 {
		plots["papi_bar.svg"] = core.PAPIBar(s, papi.TOT_INS, fmt.Sprintf("%s per PE (user regions)", papi.TOT_INS))
		if len(s.Config.PAPIEvents) > 1 {
			plots["papi_grouped.svg"] = core.PAPIGroupedBar(s, "All PAPI counters per PE (one run)")
		}
	}
	if s.Config.Overall {
		plots["overall_absolute.svg"] = core.OverallStacked(s, false, "Overall breakdown (absolute cycles)")
		plots["overall_relative.svg"] = core.OverallStacked(s, true, "Overall breakdown (relative)")
	}
	docs := make(map[string]string, len(plots))
	for name, p := range plots {
		doc, err := p.RenderSVG()
		if err != nil {
			return nil, fmt.Errorf("render %s: %w", name, err)
		}
		docs[name] = doc
	}
	return docs, nil
}

// checkSVG reports whether doc is a complete SVG document.
func checkSVG(name string, doc []byte) error {
	s := strings.TrimSpace(string(doc))
	if !strings.Contains(s, "<svg") || !strings.HasSuffix(s, "</svg>") {
		return fmt.Errorf("%s is not an SVG document (%d bytes)", name, len(doc))
	}
	return nil
}

// dirBytes sums the sizes of the trace files and of the schedule in dir.
func dirBytes(dir string) (traceBytes, schedBytes int64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		if e.Name() == whatif.ScheduleFileName {
			schedBytes += fi.Size()
		} else {
			traceBytes += fi.Size()
		}
	}
	return traceBytes, schedBytes, nil
}

// profileRun runs in once. full=true is the profiled run: full tracing
// (core.FullTrace), plus schedule capture when the input asks for it.
// full=false is the "off" point of the overhead ratio: core.Run with a
// zero trace.Config and no capture. (core.RunTriangle would upgrade an
// empty config to full tracing and always capture.)
func profileRun(in *appInput, full bool, api *shmem.APIProfile) (*trace.Set, *sim.Schedule, time.Duration, error) {
	opts := core.Options{Machine: in.machine, APIProfile: api}
	if full {
		opts.Trace = core.FullTrace()
	}
	t0 := time.Now()
	var set *trace.Set
	var sched *sim.Schedule
	var err error
	if full && in.capture {
		set, sched, err = core.RunCaptured(opts, in.body)
	} else {
		set, err = core.Run(opts, in.body)
	}
	d := time.Since(t0)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s run: %w", in.name, err)
	}
	return set, sched, d, nil
}

// setRecords counts every record a Set holds.
func setRecords(s *trace.Set) int64 {
	n := int64(len(s.Overall))
	for _, recs := range s.Logical {
		n += int64(len(recs))
	}
	for _, recs := range s.PAPI {
		n += int64(len(recs))
	}
	for _, recs := range s.Physical {
		n += int64(len(recs))
	}
	for _, recs := range s.Segments {
		n += int64(len(recs))
	}
	return n
}

// scheduleEvents counts a schedule's events.
func scheduleEvents(s *sim.Schedule) int64 {
	if s == nil {
		return 0
	}
	var n int64
	for _, l := range s.PEs {
		n += int64(len(l.Events))
	}
	return n
}

// freshHeap returns the heap to a fresh process's state between
// repetitions, outside any timing.
func freshHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// repDir returns a fresh, empty trace directory under work.
func repDir(work, name string) (string, error) {
	dir := filepath.Join(work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
