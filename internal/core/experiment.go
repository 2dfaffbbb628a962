package core

import (
	"fmt"
	"os"
	"strconv"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/conveyor"
	"actorprof/internal/graph"
	"actorprof/internal/papi"
	"actorprof/internal/shmem"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
)

// DistKind names a row distribution for the case-study experiments.
type DistKind string

// The distributions the case study compares (plus the 1D Block ablation
// point beyond the paper).
const (
	DistCyclic DistKind = "cyclic"
	DistRange  DistKind = "range"
	DistBlock  DistKind = "block"
)

// Build constructs the distribution for graph g over p PEs.
func (k DistKind) Build(g *graph.Graph, p int) (graph.Distribution, error) {
	switch k {
	case DistCyclic:
		return graph.NewCyclicDist(p), nil
	case DistRange:
		return graph.NewRangeDist(g, p), nil
	case DistBlock:
		return graph.NewBlockDist(g.NumVertices(), p), nil
	default:
		return nil, fmt.Errorf("core: unknown distribution %q", k)
	}
}

// Label returns the paper's name for the distribution.
func (k DistKind) Label() string {
	switch k {
	case DistCyclic:
		return "1D Cyclic"
	case DistRange:
		return "1D Range"
	case DistBlock:
		return "1D Block"
	default:
		return string(k)
	}
}

// TriangleExperiment is one cell of the paper's case-study grid: a graph,
// a machine shape, and a distribution.
type TriangleExperiment struct {
	// Scale / EdgeFactor / Seed parameterize the R-MAT input. The paper
	// uses scale 16, edge factor 16; DefaultScale applies when zero.
	Scale      int
	EdgeFactor int
	Seed       uint64
	// NumPEs / PEsPerNode shape the machine (16/16 and 32/16 in the
	// paper).
	NumPEs     int
	PEsPerNode int
	// Dist selects the row distribution.
	Dist DistKind
	// Trace selects ActorProf features; zero value enables everything.
	Trace trace.Config
	// BufferItems overrides the conveyor aggregation buffer size.
	BufferItems int
	// Topology overrides the conveyor routing scheme (default auto).
	Topology conveyor.Topology
	// APIProfile, when non-nil, counts every OpenSHMEM routine call
	// during the run (paper Section V-B's profiling-interface approach).
	APIProfile *shmem.APIProfile
	// Graph, when non-nil, is used instead of generating one (lets a
	// sweep share one input graph, as the paper's runs do).
	Graph *graph.Graph
	// Capture records the what-if schedule (see RunCaptured) into
	// TriangleReport.Schedule. Recording costs memory proportional to
	// the run's clock charges, so only callers that what-if profile the
	// run should set it.
	Capture bool
}

// DefaultScale is the R-MAT scale used when TriangleExperiment.Scale is
// zero. The paper runs scale 16; the default here is 12 to keep the
// simulated benchmarks laptop-runnable, and the ACTORPROF_SCALE
// environment variable raises it (set 16 to match the paper exactly).
const DefaultScale = 12

// EnvScale resolves the effective default scale from ACTORPROF_SCALE.
func EnvScale() int {
	if s := os.Getenv("ACTORPROF_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 && v <= 24 {
			return v
		}
	}
	return DefaultScale
}

// FullTrace returns a trace configuration with every ActorProf feature
// enabled and the paper's two case-study PAPI events.
func FullTrace() trace.Config {
	return trace.Config{
		Logical:    true,
		Physical:   true,
		Overall:    true,
		PAPIEvents: []papi.Event{papi.TOT_INS, papi.LST_INS},
	}
}

// TriangleReport is the outcome of one case-study run.
type TriangleReport struct {
	// Set is the collected ActorProf trace.
	Set *trace.Set
	// Schedule is the recorded what-if schedule (see internal/whatif);
	// nil unless TriangleExperiment.Capture was set.
	Schedule *sim.Schedule
	// Triangles is the distributed count; Expected the serial reference.
	Triangles, Expected int64
	// Graph echoes the input (for sweeps that reuse it).
	Graph *graph.Graph
	// DistName is the human-readable distribution name.
	DistName string
}

// Validated reports whether the distributed count matched the serial
// reference (the paper's assertion-based validation).
func (r *TriangleReport) Validated() bool { return r.Triangles == r.Expected }

// RunTriangle executes the paper's Section IV case study: distributed
// triangle counting over an R-MAT graph under the chosen distribution,
// with ActorProf attached. Only the kernel is profiled; graph
// construction and validation are excluded, as in the paper.
func RunTriangle(exp TriangleExperiment) (*TriangleReport, error) {
	if exp.Scale == 0 {
		exp.Scale = EnvScale()
	}
	if exp.EdgeFactor == 0 {
		exp.EdgeFactor = 16
	}
	if exp.NumPEs == 0 {
		exp.NumPEs = 16
	}
	if exp.PEsPerNode == 0 {
		exp.PEsPerNode = 16
	}
	if exp.Dist == "" {
		exp.Dist = DistCyclic
	}
	if !exp.Trace.Any() {
		exp.Trace = FullTrace()
	}
	g := exp.Graph
	if g == nil {
		var err error
		g, err = graph.GenerateRMAT(graph.Graph500(exp.Scale, exp.EdgeFactor, exp.Seed))
		if err != nil {
			return nil, err
		}
	}
	dist, err := exp.Dist.Build(g, exp.NumPEs)
	if err != nil {
		return nil, err
	}

	counts := make([]int64, exp.NumPEs)
	set, sched, err := run(Options{
		Machine:     sim.Machine{NumPEs: exp.NumPEs, PEsPerNode: exp.PEsPerNode},
		Trace:       exp.Trace,
		BufferItems: exp.BufferItems,
		Topology:    exp.Topology,
		APIProfile:  exp.APIProfile,
	}, func(rt *actor.Runtime) error {
		got, err := apps.TriangleCount(rt, g, dist)
		if err != nil {
			return err
		}
		counts[rt.PE().Rank()] = got
		return nil
	}, exp.Capture)
	if err != nil {
		return nil, err
	}
	report := &TriangleReport{
		Set:       set,
		Schedule:  sched,
		Triangles: counts[0],
		Expected:  g.CountTrianglesSerial(),
		Graph:     g,
		DistName:  exp.Dist.Label(),
	}
	for pe, c := range counts {
		if c != report.Triangles {
			return nil, fmt.Errorf("core: PE %d reported %d triangles, PE 0 reported %d",
				pe, c, report.Triangles)
		}
	}
	return report, nil
}
