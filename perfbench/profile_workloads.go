package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"actorprof/internal/conveyor"
	"actorprof/internal/shmem"
	"actorprof/internal/whatif"
)

// Input sizes of the profile workloads.
const (
	tcScale        = 12
	isortKeysPerPE = 100_000
)

func runTC(cfg runConfig, c *checks, m metrics) error {
	return runProfile(cfg, c, m, func() (*appInput, error) { return tcInput(cfg.seed, tcScale, machine2n) })
}

func runISort(cfg runConfig, c *checks, m metrics) error {
	return runProfile(cfg, c, m, func() (*appInput, error) { return isortInput(cfg.seed, isortKeysPerPE, machine2n) })
}

// endToEnd holds one measurement's end-to-end numbers; set-up time and
// peak RSS are measured apart.
type endToEnd struct{ throughput, p50ms, allocPerOp, outPerOp float64 }

// sessionE2E derives a session's end-to-end numbers: messages per second
// of profile (run plus write), the whole session's wall time, and heap
// and disk bytes per message.
func sessionE2E(s *session, msgs int64) endToEnd {
	n := float64(msgs)
	return endToEnd{
		throughput: n / s.profile().Seconds(),
		p50ms:      float64(s.total().Nanoseconds()) / 1e6,
		allocPerOp: s.allocBytes / n,
		outPerOp:   float64(s.traceBytes+s.schedBytes) / n,
	}
}

// setTracingOverhead reports the tracing overhead: the traced pass's
// end-to-end numbers minus the untraced pass's.
func setTracingOverhead(m metrics, untraced, traced endToEnd) {
	m.set("tracing.throughput_delta", traced.throughput-untraced.throughput, "1/s")
	m.set("tracing.p50_ms_delta", traced.p50ms-untraced.p50ms, "ms")
	m.set("tracing.alloc_bytes_per_op_delta", traced.allocPerOp-untraced.allocPerOp, "B/op")
	m.set("tracing.out_bytes_per_op_delta", traced.outPerOp-untraced.outPerOp, "B/op")
}

// runProfile runs a profile workload: set-up, one warm-up session, then
// sessions until the time budget is spent (untraced), or the traced
// comparison.
func runProfile(cfg runConfig, c *checks, m metrics, gen func() (*appInput, error)) error {
	var in *appInput
	setup := func() (time.Duration, error) {
		in = nil // collect the previous input before timing the next
		freshHeap()
		t0 := time.Now()
		var err error
		in, err = gen()
		return time.Since(t0), err
	}
	setupTimes, err := setupRound(nil, setup)
	if err != nil {
		return err
	}
	dir, err := repDir(cfg.work, "trace")
	if err != nil {
		return err
	}
	if _, err := runSession(in, dir, c, sessionOpts{}); err != nil { // warm-up
		return err
	}
	freshHeap()
	if cfg.trace {
		return tracedProfile(cfg, c, m, in)
	}

	var thr, lat, alloc, out, rss, reps []float64
	start := time.Now()
	for len(reps) == 0 || time.Since(start)+time.Duration(median(reps)*float64(time.Second)) <= cfg.seconds {
		t0 := time.Now()
		if dir, err = repDir(cfg.work, "trace"); err != nil {
			return err
		}
		peaks := startPeakSampler()
		s, err := runSession(in, dir, c, sessionOpts{})
		peak, _ := peaks.stop()
		if err != nil {
			return err
		}
		e := sessionE2E(s, in.msgs)
		thr, lat, alloc, out = append(thr, e.throughput), append(lat, e.p50ms), append(alloc, e.allocPerOp), append(out, e.outPerOp)
		rss = append(rss, peak)
		fmt.Fprintf(cfg.log, "session %d: run %.3fs write %.3fs view %.3fs whatif %.3fs\n", len(reps)+1,
			s.run.Seconds(), (s.traceWrite + s.schedWrite).Seconds(), (s.readSummary + s.render).Seconds(), s.whatif.Seconds())
		freshHeap()
		reps = append(reps, time.Since(t0).Seconds())
	}
	fmt.Fprintf(cfg.log, "%s: %d sessions, %d messages each\n", in.name, len(reps), in.msgs)
	if setupTimes, err = setupRound(setupTimes, setup); err != nil {
		return err
	}
	m.set("setup_s", median(setupTimes), "s")
	m.set("throughput", median(thr), "1/s")
	m.set("p50_ms", median(lat), "ms")
	m.set("alloc_bytes_per_op", median(alloc), "B/op")
	m.set("out_bytes_per_op", median(out), "B/op")
	m.set("peak_rss_mb", median(rss)/(1<<20), "MB")
	return nil
}

// tracedProfile runs the bare run and a session once untraced and once
// traced, and reports the per-layer metrics of the traced pass.
func tracedProfile(cfg runConfig, c *checks, m metrics, in *appInput) error {
	dir, err := repDir(cfg.work, "trace")
	if err != nil {
		return err
	}
	_, _, bareU, err := profileRun(in, false, nil)
	if err != nil {
		return err
	}
	u, err := runSession(in, dir, c, sessionOpts{})
	if err != nil {
		return err
	}
	freshHeap()

	tr := newTracer()
	api := shmem.NewAPIProfile()
	var prof bytes.Buffer
	var rt0, rt1 rtSnapshot
	var cpu0, runCPU time.Duration
	var profErr error
	peaks := startPeakSampler()
	root := tr.begin(in.name, 0, 1, 0)
	id := tr.begin("core.Run[bare]", root, 1, 0)
	_, _, bare, err := profileRun(in, false, nil)
	tr.end(id)
	if err != nil {
		return err
	}
	if dir, err = repDir(cfg.work, "trace"); err != nil {
		return err
	}
	s, err := runSession(in, dir, c, sessionOpts{tr: tr, parent: root, tid: 1, api: api, keepAll: true,
		onRun: func(start bool) {
			if start {
				rt0, cpu0 = readRuntime(), cpuTime()
				profErr = pprof.StartCPUProfile(&prof)
				return
			}
			pprof.StopCPUProfile()
			rt1, runCPU = readRuntime(), cpuTime()-cpu0
		}})
	if err != nil {
		return err
	}
	if profErr != nil {
		return profErr
	}
	// Cross-check the input-derived message count against the in-memory
	// logical trace.
	if got := s.set.LogicalMatrix().Total(); got != in.msgs {
		c.check(fmt.Errorf("logical trace holds %d sends, input has %d messages", got, in.msgs))
	} else {
		c.check(nil)
	}
	var readSched, project, replay time.Duration
	if s.sched != nil {
		id = tr.begin("whatif.ReadScheduleFile", root, 1, 0)
		t0 := time.Now()
		back, err := whatif.ReadScheduleFile(dir)
		readSched = time.Since(t0)
		tr.end(id)
		c.check(err)
		if err == nil && scheduleEvents(back) != scheduleEvents(s.sched) {
			c.check(fmt.Errorf("schedule read back holds %d events, captured %d", scheduleEvents(back), scheduleEvents(s.sched)))
		}
		p := whatifPerturbation(s.sched)
		id = tr.begin("whatif.Project", root, 1, 0)
		t0 = time.Now()
		_, err = whatif.Project(s.sched, p)
		project = time.Since(t0)
		tr.end(id)
		c.check(err)
		id = tr.begin("whatif.Replay", root, 1, 0)
		t0 = time.Now()
		_, err = whatif.Replay(s.sched, p)
		replay = time.Since(t0)
		tr.end(id)
		c.check(err)
	}
	tr.end(root)
	_, heapPeak := peaks.stop()

	samples, err := parseCPUProfile(&prof)
	if err != nil {
		return err
	}
	shares, nsamples := layerShares(samples)

	msgs := float64(in.msgs)
	kinds := s.summary.PhysicalKindCounts()
	var makespan int64
	for _, r := range s.set.Overall {
		makespan = max(makespan, r.TTotal)
	}
	events := scheduleEvents(s.sched)

	m.set("graph.rmat_s", in.genS, "s")
	m.set("graph.serial_ref_s", in.refS, "s")
	m.set("core.run_s", s.run.Seconds(), "s")
	m.set("core.bare_run_s", bare.Seconds(), "s")
	// The untraced pair: the traced pass carries the benchmark's own
	// instrumentation, whose cost tracing.*_delta reports.
	m.set("core.overhead_x", u.profile().Seconds()/bareU.Seconds(), "ratio")
	m.set("shmem.putnbi_calls", float64(api.TotalCount(shmem.RoutinePutNBI)), "count")
	m.set("shmem.quiet_calls", float64(api.TotalCount(shmem.RoutineQuiet)), "count")
	m.set("shmem.barrier_calls", float64(api.TotalCount(shmem.RoutineBarrier)), "count")
	m.set("shmem.sched_wait_p50_us", schedLatency(rt0, rt1, 0.50)*1e6, "us")
	m.set("shmem.sched_wait_p99_us", schedLatency(rt0, rt1, 0.99)*1e6, "us")
	m.set("shmem.mutex_wait_s", delta(rt0, rt1, rmMutexWait), "s")
	m.set("conveyor.local_sends", float64(kinds[conveyor.LocalSend]), "count")
	m.set("conveyor.nonblock_sends", float64(kinds[conveyor.NonblockSend]), "count")
	m.set("conveyor.progress", float64(kinds[conveyor.NonblockProgress]), "count")
	if bufs := kinds[conveyor.LocalSend] + kinds[conveyor.NonblockSend]; bufs > 0 {
		m.set("conveyor.msgs_per_buffer", msgs/float64(bufs), "msg/buffer")
	}
	m.set("actor.msgs", msgs, "count")
	m.set("actor.ns_per_msg", shares["actor"]*float64(runCPU.Nanoseconds())/msgs, "ns/msg")
	m.set("sim.makespan_cycles", float64(makespan), "cycles")
	m.set("trace.records", float64(setRecords(s.set)), "count")
	m.set("trace.bytes", float64(s.traceBytes), "B")
	m.set("trace.write_s", s.traceWrite.Seconds(), "s")
	m.set("capture.events", float64(events), "count")
	m.set("capture.events_per_msg", float64(events)/msgs, "events/msg")
	m.set("capture.bytes", float64(s.schedBytes), "B")
	m.set("capture.write_s", s.schedWrite.Seconds(), "s")
	m.set("trace.read_summary_s", s.readSummary.Seconds(), "s")
	m.set("viz.render_s", s.render.Seconds(), "s")
	m.set("viz.svg_bytes", float64(s.svgBytes), "B")
	m.set("whatif.read_schedule_s", readSched.Seconds(), "s")
	m.set("whatif.project_s", project.Seconds(), "s")
	m.set("whatif.replay_s", replay.Seconds(), "s")
	if s.whatif > 0 {
		m.set("whatif.events_per_s", float64(events)/s.whatif.Seconds(), "1/s")
	}
	setRuntimeMetrics(m, rt0, rt1, heapPeak)
	setCPUShares(m, shares, nsamples)

	setTracingOverhead(m, sessionE2E(u, in.msgs), sessionE2E(s, in.msgs))
	m.set("tracing.bare_run_s_delta", (bare - bareU).Seconds(), "s")
	return writeTraceOutputs(cfg, tr, "perfbench "+in.name, map[int]string{1: "run slot 1"}, m)
}

// setRuntimeMetrics reports the Go runtime's work between two snapshots.
func setRuntimeMetrics(m metrics, a, b rtSnapshot, heapPeak float64) {
	if cpu := delta(a, b, rmTotalCPU); cpu > 0 {
		m.set("go.gc_cpu_frac", delta(a, b, rmGCCPU)/cpu, "ratio")
	}
	m.set("go.alloc_bytes", delta(a, b, rmAllocBytes), "B")
	m.set("go.allocs", delta(a, b, rmAllocs), "count")
	m.set("go.gc_cycles", delta(a, b, rmGCCycles), "count")
	m.set("go.heap_peak_mb", heapPeak/(1<<20), "MB")
}

// setCPUShares reports every layer's share of the CPU samples.
func setCPUShares(m metrics, shares map[string]float64, samples int64) {
	for _, l := range cpuLayers {
		m.set(l+".cpu_frac", shares[l], "ratio")
	}
	m.set("tracing.cpu_samples", float64(samples), "count")
}

// writeTraceOutputs writes the traced run's spans (Chrome Trace Event
// JSON, loadable in Perfetto) and its per-layer table, and fills every
// per-layer metric the workload does not exercise with zero.
func writeTraceOutputs(cfg runConfig, tr *tracer, process string, threads map[int]string, m metrics) error {
	for _, pl := range cfg.perLayer {
		if _, ok := m[pl.Name]; !ok {
			m.set(pl.Name, 0, pl.Unit)
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.out, "spans.json"))
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f, process, threads); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t, err := os.Create(filepath.Join(cfg.out, "layers.txt"))
	if err != nil {
		return err
	}
	printMetrics(t, m)
	fmt.Fprintln(t, "\nself time per span name:")
	for name, d := range tr.selfTimes() {
		fmt.Fprintf(t, "%-32s %12.6f s\n", name, d.Seconds())
	}
	if err := t.Close(); err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "spans: %s\n", filepath.Join(cfg.out, "spans.json"))
	return nil
}
