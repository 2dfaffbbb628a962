package whatif_test

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"actorprof/internal/apps"
	"actorprof/internal/sim"
	"actorprof/internal/whatif"
)

// smallSchedule is a hand-built 2-PE schedule touching charged kinds,
// handler markers and a barrier; PE 0 carries skew 7.
func smallSchedule() *sim.Schedule {
	rec := sim.NewScheduleRecorder(sim.Machine{NumPEs: 2, PEsPerNode: 2}, sim.Virtual, sim.DefaultCostModel())
	rec.PE(0).Skew = 7
	for pe := 0; pe < 2; pe++ {
		l := rec.PE(pe)
		l.Append(sim.EvFinishStart, 0)
		l.Append(sim.EvNetworkPut, 128)
		l.Append(sim.EvHandlerStart, sim.ActorID(1, 2))
		l.Append(sim.EvInstr, 50)
		l.Append(sim.EvHandlerEnd, sim.ActorID(1, 2))
		l.Append(sim.EvNetworkPut, 128)
		l.Append(sim.EvInstr, -3)
		l.Append(sim.EvBarrier, 0)
		l.Append(sim.EvFinishEnd, 0)
	}
	return rec.Schedule()
}

func TestScheduleCodecRoundTrip(t *testing.T) {
	s := smallSchedule()
	dir := t.TempDir()
	if err := whatif.WriteScheduleFile(dir, s); err != nil {
		t.Fatal(err)
	}
	got, err := whatif.ReadScheduleFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.PEs[0].Skew != 7 {
		t.Errorf("skew = %d, want 7", got.PEs[0].Skew)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip lost data:\n%+v\n%+v", s.PEs[0], got.PEs[0])
	}
}

// sidecar assembles a schedule file byte by byte, independently of the
// encoder, so the tests pin the on-disk layout: magic, version, the
// length-prefixed JSON header for machine m, then body.
func sidecar(m sim.Machine, body ...byte) []byte {
	hdr, err := json.Marshal(map[string]any{"machine": m, "timing": sim.Virtual, "cost": sim.DefaultCostModel()})
	if err != nil {
		panic(err)
	}
	b := append([]byte("APSC"), 1)
	b = binary.AppendUvarint(b, uint64(len(hdr)))
	b = append(b, hdr...)
	return append(b, body...)
}

// onePE is the machine every hand-built file below uses.
var onePE = sim.Machine{NumPEs: 1, PEsPerNode: 1}

// validBody is one PE, skew 0, two events: a barrier whose Arg repeats
// the initial 0 (flag set, no varint) and a 128-byte network put.
var validBody = []byte{0, 2, byte(sim.EvBarrier) | 0x80, byte(sim.EvNetworkPut), 0x80, 0x02}

func writeSidecar(t testing.TB, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, whatif.ScheduleFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReadScheduleFileHandBuilt(t *testing.T) {
	dir := t.TempDir()
	writeSidecar(t, dir, sidecar(onePE, validBody...))
	s, err := whatif.ReadScheduleFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []sim.Event{{Kind: sim.EvBarrier, Arg: 0}, {Kind: sim.EvNetworkPut, Arg: 128}}
	if !reflect.DeepEqual(s.PEs[0].Events, want) || s.Machine != onePE || s.Cost != sim.DefaultCostModel() {
		t.Fatalf("decoded %+v, want events %+v", s, want)
	}
}

func TestReadScheduleFileRejects(t *testing.T) {
	valid := sidecar(onePE, validBody...)
	hdrEnd := len(valid) - len(validBody)
	withVersion := append([]byte(nil), valid...)
	withVersion[4] = 2
	huge := binary.AppendUvarint([]byte{0}, 1<<40)
	extra := []byte(`{"machine":{"NumPEs":1,"PEsPerNode":1},"timing":0,"cost":{},"extra":1}`)
	unknownField := binary.AppendUvarint([]byte("APSC\x01"), uint64(len(extra)))
	unknownField = append(append(unknownField, extra...), validBody...)
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"empty file", "truncated", nil},
		{"bad magic", "bad magic", append([]byte("APBF"), valid[4:]...)},
		{"unknown version", "unsupported version 2", withVersion},
		{"truncated magic", "truncated", valid[:3]},
		{"truncated header", "header length", valid[:hdrEnd-4]},
		{"header with unknown field", "unknown field", unknownField},
		{"truncated skew varint", "truncated", sidecar(onePE, 0x80, 0x80)},
		{"truncated event count", "truncated", sidecar(onePE, 0, 0x80)},
		{"truncated event", "truncated", sidecar(onePE, 0, 1, byte(sim.EvNetworkPut))},
		{"varint overflow", "overflows", sidecar(onePE, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)},
		{"unknown kind 99", "unknown kind 99", sidecar(onePE, 0, 1, 99, 0)},
		{"unknown kind -1", "unknown kind 127", sidecar(onePE, 0, 1, 0xff)},
		{"unknown kind NumEventKinds", "unknown kind", sidecar(onePE, 0, 1, byte(sim.NumEventKinds)|0x80)},
		{"event count beyond file", "exceeds", sidecar(onePE, huge...)},
		{"PEs beyond file", "PEs exceed", sidecar(sim.Machine{NumPEs: 1 << 30, PEsPerNode: 1 << 30}, validBody...)},
		{"trailing garbage", "trailing", append(append([]byte(nil), valid...), 0)},
		{"missing barrier", "barriers", sidecar(sim.Machine{NumPEs: 2, PEsPerNode: 2}, append(append([]byte(nil), validBody...), 0, 0)...)},
		{"negative skew", "negative skew", sidecar(onePE, append([]byte{1}, validBody[1:]...)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeSidecar(t, dir, tc.data)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := whatif.ReadScheduleFile(dir)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("accepted: %+v", s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			// Nothing a tiny file claims may be allocated up front.
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Errorf("rejecting a %d-byte file allocated %d bytes", len(tc.data), n)
			}
		})
	}
}

func TestWriteScheduleFileInvalidLeavesNothing(t *testing.T) {
	bad := smallSchedule()
	bad.PEs[1].Events = bad.PEs[1].Events[:1] // drops PE 1's barrier
	dir := filepath.Join(t.TempDir(), "run")
	if err := whatif.WriteScheduleFile(dir, bad); err == nil {
		t.Fatal("invalid schedule written")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("invalid write created %s (stat err %v)", dir, err)
	}

	// Over an existing schedule, a failed write keeps the old file.
	good := smallSchedule()
	if err := whatif.WriteScheduleFile(dir, good); err != nil {
		t.Fatal(err)
	}
	if err := whatif.WriteScheduleFile(dir, bad); err == nil {
		t.Fatal("invalid schedule written")
	}
	assertOnlySchedule(t, dir)
	got, err := whatif.ReadScheduleFile(dir)
	if err != nil || !reflect.DeepEqual(got, good) {
		t.Fatalf("old schedule damaged: %v", err)
	}
}

func TestWriteScheduleFileReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	big := benchScheduleLike(4, 8)
	if err := whatif.WriteScheduleFile(dir, big); err != nil {
		t.Fatal(err)
	}
	small := smallSchedule()
	if err := whatif.WriteScheduleFile(dir, small); err != nil {
		t.Fatal(err)
	}
	assertOnlySchedule(t, dir)
	got, err := whatif.ReadScheduleFile(dir)
	if err != nil {
		t.Fatalf("rewritten schedule: %v", err)
	}
	if !reflect.DeepEqual(got, small) {
		t.Fatal("rewrite did not replace the old schedule")
	}
}

// assertOnlySchedule fails unless dir holds exactly the sidecar: no
// temporary file may survive a write.
func assertOnlySchedule(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != whatif.ScheduleFileName {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("dir holds %v, want only %s", names, whatif.ScheduleFileName)
	}
}

// benchScheduleLike is a larger valid schedule than smallSchedule, so a
// rewrite with the small one would leave a visible tail if it truncated
// in place.
func benchScheduleLike(pes, gens int) *sim.Schedule {
	rec := sim.NewScheduleRecorder(sim.Machine{NumPEs: pes, PEsPerNode: pes}, sim.Virtual, sim.DefaultCostModel())
	for pe := 0; pe < pes; pe++ {
		l := rec.PE(pe)
		for g := 0; g < gens; g++ {
			l.Append(sim.EvNetworkPut, int64(64+g))
			l.Append(sim.EvInstr, int64(pe*1000+g))
			l.Append(sim.EvBarrier, 0)
		}
	}
	return rec.Schedule()
}

// FuzzReadScheduleFile feeds arbitrary bytes to the sidecar reader. It
// must never panic, and anything it accepts must be a valid schedule
// that re-encodes to the same bytes' meaning.
func FuzzReadScheduleFile(f *testing.F) {
	_, sched := capture(f, apps.ChaosApps()[1], sim.Machine{NumPEs: 2, PEsPerNode: 2})
	seedDir := f.TempDir()
	for _, s := range []*sim.Schedule{sched, smallSchedule()} {
		if err := whatif.WriteScheduleFile(seedDir, s); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(seedDir, whatif.ScheduleFileName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(sidecar(onePE, validBody...))
	f.Add(sidecar(onePE, binary.AppendUvarint([]byte{0}, 1<<40)...))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		writeSidecar(t, dir, data)
		s, err := whatif.ReadScheduleFile(dir)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted an invalid schedule: %v", err)
		}
		again := t.TempDir()
		if err := whatif.WriteScheduleFile(again, s); err != nil {
			t.Fatalf("re-encoding an accepted schedule: %v", err)
		}
		back, err := whatif.ReadScheduleFile(again)
		if err != nil || !reflect.DeepEqual(s, back) {
			t.Fatalf("accepted schedule does not round-trip: %v", err)
		}
	})
}
