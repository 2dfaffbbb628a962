package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOfSyntheticStacks(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "actorprof/internal/sim.(*PELog).Append", "actorprof/internal/sim.(*Clock).Charge"}, "capture"},
		{[]string{"actorprof/internal/sim.(*ScheduleRecorder).record", "actorprof/internal/shmem.(*PE).PutNBI"}, "capture"},
		{[]string{"actorprof/internal/sim.(*Clock).Charge", "actorprof/internal/conveyor.(*Conveyor).Push"}, "sim"},
		{[]string{"runtime.memmove", "actorprof/internal/conveyor.(*Conveyor).advance", "actorprof/internal/actor.(*Selector[...]).Send"}, "conveyor"},
		{[]string{"actorprof/internal/actor.(*Selector[go.shape.int64]).drain.func1"}, "actor"},
		{[]string{"actorprof/internal/hclib.Finish"}, "actor"},
		{[]string{"actorprof/internal/stats.EstimateDensity", "actorprof/internal/viz.(*Violin).RenderSVG"}, "viz"},
		{[]string{"actorprof/internal/trace/parallel.helper"}, "trace"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sched"},
		{[]string{"syscall.Syscall", "os.(*File).Write", "main.writeTraceOutputs"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestLayerSharesSumToOne(t *testing.T) {
	shares, total := layerShares([]stackSample{
		{stack: []string{"actorprof/internal/shmem.(*PE).Quiet"}, count: 3},
		{stack: []string{"runtime.gcBgMarkWorker"}, count: 1},
	})
	if total != 4 || shares["shmem"] != 0.75 || shares["gc"] != 0.25 {
		t.Fatalf("shares %v total %d", shares, total)
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
		_ = strings.Repeat("x", n%64)
	}
	return n
}

func TestParseRealCPUProfile(t *testing.T) {
	var b bytes.Buffer
	if err := pprof.StartCPUProfile(&b); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(&b)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.count
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, "spinForProfile")
		}
	}
	if total == 0 || !found {
		t.Fatalf("%d samples, spinForProfile seen: %v", total, found)
	}
}
