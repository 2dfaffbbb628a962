package whatif

import (
	"os"
	"path/filepath"
	"testing"

	"actorprof/internal/sim"
)

// benchSchedule synthesizes a deterministic schedule shaped like a real
// FA-BSP run - per generation a main-loop instruction burst, a fan-out
// of buffer transfers with handler activations, a quiet, and a barrier -
// without running a simulation, so the benchmark measures only the
// engines.
func benchSchedule(pes, gens, transfersPerGen int) *sim.Schedule {
	rec := sim.NewScheduleRecorder(sim.Machine{NumPEs: pes, PEsPerNode: pes}, sim.Virtual, sim.DefaultCostModel())
	for pe := 0; pe < pes; pe++ {
		l := rec.PE(pe)
		l.Append(sim.EvFinishStart, 0)
		for g := 0; g < gens; g++ {
			l.Append(sim.EvInstr, int64(200+pe*17+g*31))
			l.Append(sim.EvMainPause, 0)
			for i := 0; i < transfersPerGen; i++ {
				l.Append(sim.EvNetworkPut, int64(64+(i%7)*16))
				actor := sim.ActorID(i%3, 0)
				l.Append(sim.EvHandlerStart, actor)
				l.Append(sim.EvInstr, int64(40+i%11))
				l.Append(sim.EvHandlerEnd, actor)
			}
			l.Append(sim.EvQuiet, int64(transfersPerGen))
			l.Append(sim.EvBarrier, 0)
			l.Append(sim.EvMainResume, 0)
		}
		l.Append(sim.EvMainPause, 0)
		l.Append(sim.EvFinishEnd, 0)
	}
	return rec.Schedule()
}

// BenchmarkCriticalPath measures the analytic engine end to end:
// projection, critical-path extraction, and bottleneck ranking over a
// 16-PE, 32-generation schedule.
func BenchmarkCriticalPath(b *testing.B) {
	s := benchSchedule(16, 32, 24)
	p := Identity(s)
	b.ReportMetric(float64(s.Events()), "events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := Project(s, p)
		if err != nil {
			b.Fatal(err)
		}
		if len(an.Windows) != 1 {
			b.Fatalf("got %d windows", len(an.Windows))
		}
	}
}

// BenchmarkWhatIfReplay measures the deterministic replay engine over
// the same schedule under a non-identity perturbation.
func BenchmarkWhatIfReplay(b *testing.B) {
	s := benchSchedule(16, 32, 24)
	p := Perturbation{
		Cost:           ScaledCost(s.Cost, CostScales{Network: 2, Instr: 0.5}),
		HandlerSpeedup: map[int64]float64{sim.ActorID(1, 0): 2},
	}
	b.ReportMetric(float64(s.Events()), "events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := Replay(s, p)
		if err != nil {
			b.Fatal(err)
		}
		if rt.Makespan == 0 {
			b.Fatal("zero makespan")
		}
	}
}

// BenchmarkWriteScheduleFile measures encoding benchSchedule into the
// schedule sidecar, temporary file and rename included.
func BenchmarkWriteScheduleFile(b *testing.B) {
	s := benchSchedule(16, 32, 24)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteScheduleFile(dir, s); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportBytesPerEvent(b, dir, s)
}

// BenchmarkReadScheduleFile measures decoding and validating the
// sidecar BenchmarkWriteScheduleFile writes.
func BenchmarkReadScheduleFile(b *testing.B) {
	s := benchSchedule(16, 32, 24)
	dir := b.TempDir()
	if err := WriteScheduleFile(dir, s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ReadScheduleFile(dir)
		if err != nil {
			b.Fatal(err)
		}
		if got.Events() != s.Events() {
			b.Fatalf("read %d events, wrote %d", got.Events(), s.Events())
		}
	}
	b.StopTimer()
	reportBytesPerEvent(b, dir, s)
}

func reportBytesPerEvent(b *testing.B, dir string, s *sim.Schedule) {
	fi, err := os.Stat(filepath.Join(dir, ScheduleFileName))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size())/float64(s.Events()), "B/event")
}
