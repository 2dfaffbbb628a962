package whatif_test

import (
	"fmt"
	"reflect"
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/core"
	"actorprof/internal/fault/harness"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
	"actorprof/internal/whatif"
)

// capture runs one chaos app under schedule capture with the overall
// profile enabled and returns both the recorded trace and the schedule.
func capture(t testing.TB, app harness.App, m sim.Machine) (*trace.Set, *sim.Schedule) {
	t.Helper()
	set, sched, err := core.RunCaptured(core.Options{
		Machine:     m,
		Trace:       trace.Config{Overall: true},
		BufferItems: app.BufferItems,
	}, func(rt *actor.Runtime) error {
		_, err := app.Run(rt)
		return err
	})
	if err != nil {
		t.Fatalf("RunCaptured(%s): %v", app.Name, err)
	}
	if sched == nil {
		t.Fatalf("RunCaptured(%s): nil schedule", app.Name)
	}
	return set, sched
}

// perturbations is the fixed what-if hypothesis set every app is
// differentially validated under: cost-group scalings in both
// directions, combinations, and a handler speedup on the busiest actor.
func perturbations(sched *sim.Schedule, base *whatif.Analysis) []whatif.Perturbation {
	ps := []whatif.Perturbation{
		{Cost: whatif.ScaledCost(sched.Cost, whatif.CostScales{Network: 2})},
		{Cost: whatif.ScaledCost(sched.Cost, whatif.CostScales{Network: 0.25})},
		{Cost: whatif.ScaledCost(sched.Cost, whatif.CostScales{Quiet: 3})},
		{Cost: whatif.ScaledCost(sched.Cost, whatif.CostScales{Instr: 0.5, Ingest: 2})},
		{Cost: whatif.ScaledCost(sched.Cost, whatif.CostScales{Network: 0.5, Local: 2, Quiet: 0.5})},
	}
	if len(base.Bottlenecks) > 0 {
		ps = append(ps, whatif.Perturbation{
			Cost:           sched.Cost,
			HandlerSpeedup: map[int64]float64{base.Bottlenecks[0].Actor: 2},
		})
	}
	return ps
}

// TestDifferentialAllApps is the tentpole's acceptance oracle, run over
// every chaos fixture: (1) the identity projection reproduces the run's
// recorded T_MAIN/T_PROC/T_COMM/T_TOTAL bit-for-bit per PE, (2) every
// finish window's critical path tiles its span exactly, with the span
// equal to the largest recorded main-loop duration (T_TOTAL), and
// (3) every perturbed projection agrees bit-for-bit with a deterministic
// replay of the recorded schedule under the perturbed pricing
// (whatif.Compare errors otherwise).
func TestDifferentialAllApps(t *testing.T) {
	m := sim.Machine{NumPEs: 4, PEsPerNode: 2}
	for _, app := range apps.ChaosApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			set, sched := capture(t, app, m)

			base, err := whatif.Project(sched, whatif.Identity(sched))
			if err != nil {
				t.Fatalf("Project(identity): %v", err)
			}

			// (1) Identity projection == recorded overall records.
			recs := set.OverallByPE()
			if len(recs) != len(base.Totals.PerPE) {
				t.Fatalf("got %d projected PEs, want %d", len(base.Totals.PerPE), len(recs))
			}
			var maxTotal int64
			for pe, r := range recs {
				if r == nil {
					t.Fatalf("PE %d has no overall record", pe)
				}
				got := base.Totals.PerPE[pe]
				want := whatif.Totals{TMain: r.TMain, TProc: r.TProc, TComm: r.TComm, TTotal: r.TTotal}
				if got != want {
					t.Errorf("PE %d: projected %+v, recorded %+v", pe, got, want)
				}
				if r.TTotal > maxTotal {
					maxTotal = r.TTotal
				}
			}

			// (2) Window spans and critical-path tiling. Each window's
			// span is the largest per-PE main-loop duration it contains,
			// so over all Finish scopes the spans bound the largest
			// recorded accumulated T_TOTAL from above - with equality for
			// single-window apps (most of them; iterative apps enter
			// Finish once per phase).
			if len(base.Windows) == 0 {
				t.Fatalf("no finish windows")
			}
			var spanSum int64
			for _, w := range base.Windows {
				if w.Span != w.End-w.Start {
					t.Errorf("window %d span %d != end-start %d", w.Index, w.Span, w.End-w.Start)
				}
				spanSum += w.Span
				checkPathTiles(t, w)
			}
			if len(base.Windows) == 1 && spanSum != maxTotal {
				t.Errorf("window span %d != max recorded T_TOTAL %d", spanSum, maxTotal)
			}
			if spanSum < maxTotal {
				t.Errorf("window spans sum to %d < max recorded T_TOTAL %d", spanSum, maxTotal)
			}
			if len(base.Bottlenecks) == 0 {
				t.Errorf("no bottleneck entries for %s", app.Name)
			}

			// (3) Projection == replay for every perturbation.
			for i, p := range perturbations(sched, base) {
				rep, err := whatif.Compare(sched, p)
				if err != nil {
					t.Fatalf("perturbation %d: %v", i, err)
				}
				// The perturbed analysis must also tile its own windows.
				for _, pw := range rep.Projected.Windows {
					checkPathTiles(t, pw)
				}
			}
		})
	}
}

// checkPathTiles asserts the critical path covers the window exactly:
// contiguous edges from Start to End whose durations (and per-regime and
// per-kind breakdowns) sum to Span.
func checkPathTiles(t *testing.T, w whatif.Window) {
	t.Helper()
	if len(w.Path.Edges) == 0 {
		t.Errorf("window %d: empty critical path", w.Index)
		return
	}
	if w.Path.Span != w.Span {
		t.Errorf("window %d: path span %d != window span %d", w.Index, w.Path.Span, w.Span)
	}
	at := w.Start
	var dur, regime, kinds int64
	for i, e := range w.Path.Edges {
		if e.Start != at {
			t.Errorf("window %d edge %d: starts at %d, want %d (gap/overlap)", w.Index, i, e.Start, at)
		}
		if e.End <= e.Start {
			t.Errorf("window %d edge %d: non-positive duration [%d,%d)", w.Index, i, e.Start, e.End)
		}
		at = e.End
		dur += e.End - e.Start
		b := e.Breakdown
		regime += b.Main + b.Comm + b.Proc + b.Off
		kinds += b.Network + b.Local + b.Quiet + b.Instr + b.Ingest + b.Stall
	}
	if at != w.End {
		t.Errorf("window %d: path ends at %d, want %d", w.Index, at, w.End)
	}
	if dur != w.Span {
		t.Errorf("window %d: edge durations sum to %d, want span %d", w.Index, dur, w.Span)
	}
	if regime != w.Span {
		t.Errorf("window %d: regime breakdown sums to %d, want span %d", w.Index, regime, w.Span)
	}
	if kinds != w.Span {
		t.Errorf("window %d: kind breakdown sums to %d, want span %d", w.Index, kinds, w.Span)
	}
}

// TestDifferentialSkewed repeats the differential check under hybrid-era
// clock skew (satellite: the skew fix must hold in both charge paths)
// and a second machine shape.
func TestDifferentialSkewed(t *testing.T) {
	app := apps.ChaosApps()[0]
	m := sim.Machine{NumPEs: 8, PEsPerNode: 4}
	set, sched := capture(t, app, m)
	// Re-stamp synthetic skew is not possible post-hoc (charges were
	// recorded unskewed), so instead validate that the engines agree on
	// a schedule whose PELogs carry nonzero skew by replaying with the
	// skew fields patched in: projection and replay must still match
	// bit-for-bit, since both apply sim.SkewCharge per charge.
	for pe := range sched.PEs {
		sched.PEs[pe].Skew = int64(pe * 3)
	}
	if _, err := whatif.Compare(sched, whatif.Identity(sched)); err != nil {
		t.Fatalf("skewed compare: %v", err)
	}
	_ = set
}

// TestScheduleRoundTrip ensures the schedule sidecar survives a
// write/read cycle exactly: the whole Schedule is reflect.DeepEqual for
// every chaos app and for a schedule with nonzero per-PE skew, and the
// projections over the read-back copy are unchanged.
func TestScheduleRoundTrip(t *testing.T) {
	m := sim.Machine{NumPEs: 4, PEsPerNode: 2}
	for _, app := range apps.ChaosApps() {
		t.Run(app.Name, func(t *testing.T) {
			_, sched := capture(t, app, m)
			roundTrip(t, sched)
		})
	}
	t.Run("skewed", func(t *testing.T) {
		_, sched := capture(t, apps.ChaosApps()[1], m)
		for pe := range sched.PEs {
			sched.PEs[pe].Skew = int64(pe * 3)
		}
		roundTrip(t, sched)
	})
}

func roundTrip(t *testing.T, sched *sim.Schedule) {
	t.Helper()
	dir := t.TempDir()
	if err := whatif.WriteScheduleFile(dir, sched); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !whatif.HasSchedule(dir) {
		t.Fatalf("HasSchedule = false after write")
	}
	got, err := whatif.ReadScheduleFile(dir)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(sched, got) {
		t.Fatalf("round-tripped schedule differs from the original")
	}
	a, err := whatif.Project(sched, whatif.Identity(sched))
	if err != nil {
		t.Fatalf("project original: %v", err)
	}
	b, err := whatif.Project(got, whatif.Identity(got))
	if err != nil {
		t.Fatalf("project round-tripped: %v", err)
	}
	if !a.Totals.Equal(b.Totals) {
		t.Fatalf("round-tripped totals differ:\n%+v\n%+v", a.Totals, b.Totals)
	}
}

// TestPerturbationValidate covers the cost-model guard satellite at the
// whatif entry points.
func TestPerturbationValidate(t *testing.T) {
	_, sched := capture(t, apps.ChaosApps()[0], sim.Machine{NumPEs: 2, PEsPerNode: 2})
	cases := []struct {
		name string
		p    whatif.Perturbation
	}{
		{"zero cost model", whatif.Perturbation{}},
		{"negative latency", whatif.Perturbation{Cost: func() sim.CostModel {
			c := sched.Cost
			c.NetworkLatency = -1
			return c
		}()}},
		{"free network", whatif.Perturbation{Cost: func() sim.CostModel {
			c := sched.Cost
			c.NetworkLatency, c.NetworkPerByte = 0, 0
			return c
		}()}},
		{"bad speedup", whatif.Perturbation{Cost: sched.Cost, HandlerSpeedup: map[int64]float64{1: 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := whatif.Project(sched, tc.p); err == nil {
				t.Errorf("Project accepted %s", tc.name)
			}
			if _, err := whatif.Replay(sched, tc.p); err == nil {
				t.Errorf("Replay accepted %s", tc.name)
			}
		})
	}
}

func ExampleCompare() {
	// A schedule with two PEs and one generation: PE 1 is the critical
	// path; doubling network cost doubles its transfer charge.
	rec := sim.NewScheduleRecorder(sim.Machine{NumPEs: 2, PEsPerNode: 2}, sim.Virtual, sim.DefaultCostModel())
	for pe := 0; pe < 2; pe++ {
		l := rec.PE(pe)
		l.Append(sim.EvFinishStart, 0)
		l.Append(sim.EvMainPause, 0)
		l.Append(sim.EvNetworkPut, int64(8*(pe+1)))
		l.Append(sim.EvBarrier, 0)
		l.Append(sim.EvFinishEnd, 0)
	}
	rep, err := whatif.Compare(rec.Schedule(), whatif.Perturbation{
		Cost: whatif.ScaledCost(sim.DefaultCostModel(), whatif.CostScales{Network: 2}),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("makespan %d -> %d\n", rep.Baseline.Totals.Makespan, rep.Projected.Totals.Makespan)
	// Output:
	// makespan 6016 -> 12032
}
