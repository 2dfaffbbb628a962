package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"actorprof/internal/actor"
	"actorprof/internal/apps"
	"actorprof/internal/core"
	"actorprof/internal/sim"
	"actorprof/internal/trace"
	"actorprof/internal/whatif"
)

// writeCapturedRun produces a finished trace directory with a recorded
// schedule sidecar under root.
func writeCapturedRun(t *testing.T, root, id string) {
	t.Helper()
	set, sched, err := core.RunCaptured(core.Options{
		Machine: sim.Machine{NumPEs: 4, PEsPerNode: 2},
		Trace:   trace.Config{Overall: true, Physical: true},
	}, func(rt *actor.Runtime) error {
		_, err := apps.Histogram(rt, apps.HistogramConfig{
			UpdatesPerPE: 100, TableSizePerPE: 32, Seed: 7,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, id)
	if err := set.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	if err := whatif.WriteScheduleFile(dir, sched); err != nil {
		t.Fatal(err)
	}
}

func TestWhatIfEndpoint(t *testing.T) {
	root := t.TempDir()
	writeCapturedRun(t, root, "cap1")
	writeRun(t, root, "plain") // no schedule.bin
	srv, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// Baseline report: zero deltas, windows and bottlenecks present.
	res, body := get(t, h, "/runs/cap1/whatif")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("baseline: status %d: %s", res.StatusCode, body)
	}
	var rep whatif.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("baseline report: %v", err)
	}
	if rep.Delta.Makespan != 0 || rep.Delta.TTotal != 0 {
		t.Errorf("baseline deltas nonzero: %+v", rep.Delta)
	}
	if len(rep.Baseline.Windows) == 0 || len(rep.Baseline.Bottlenecks) == 0 {
		t.Errorf("baseline analysis missing windows/bottlenecks")
	}

	// Perturbed report: slower network must not shrink the makespan.
	res, body = get(t, h, "/runs/cap1/whatif?scale_network=2")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("perturbed: status %d: %s", res.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Delta.Makespan < 0 {
		t.Errorf("2x network shrank makespan by %d", -rep.Delta.Makespan)
	}

	// SVG plots.
	for _, path := range []string{
		"/runs/cap1/whatif?scale_network=2&plot=compare&format=svg",
		"/runs/cap1/whatif?plot=bottleneck&format=svg",
	} {
		res, body = get(t, h, path)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, res.StatusCode, body)
		}
		if ct := res.Header.Get("Content-Type"); ct != "image/svg+xml" {
			t.Errorf("%s: content type %q", path, ct)
		}
		if !strings.Contains(body, "<svg") {
			t.Errorf("%s: no SVG in body", path)
		}
	}

	// ETag revalidation.
	res, _ = get(t, h, "/runs/cap1/whatif?scale_network=2")
	etag := res.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on whatif response")
	}
	if res304, _ := getH(t, h, "GET", "/runs/cap1/whatif?scale_network=2",
		map[string]string{"If-None-Match": etag}); res304.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match: status %d, want 304", res304.StatusCode)
	}

	// Bad parameters are client errors.
	for _, path := range []string{
		"/runs/cap1/whatif?scale_network=0",
		"/runs/cap1/whatif?scale_network=banana",
		"/runs/cap1/whatif?speedup=2",
		"/runs/cap1/whatif?plot=nope",
		"/runs/cap1/whatif?format=svg",
	} {
		res, _ = get(t, h, path)
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, res.StatusCode)
		}
	}

	// Runs without a schedule 404.
	res, body = get(t, h, "/runs/plain/whatif")
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("plain run: status %d, want 404: %s", res.StatusCode, body)
	}
	if !strings.Contains(body, "schedule") {
		t.Errorf("plain run error does not mention the schedule: %s", body)
	}

	// The index links whatif only for runs that recorded a schedule.
	res, body = get(t, h, "/")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("index: status %d", res.StatusCode)
	}
	if !strings.Contains(body, "/runs/cap1/whatif") {
		t.Errorf("index does not link /runs/cap1/whatif")
	}
	if strings.Contains(body, "/runs/plain/whatif") {
		t.Errorf("index links whatif for the schedule-less run")
	}
}

// TestWhatIfCorruptSchedule pins the sidecar failure modes a live
// server can meet: a truncated schedule.bin is an error response (never
// a panic or a 200), and a temporary file left by an interrupted write
// is not mistaken for a schedule.
func TestWhatIfCorruptSchedule(t *testing.T) {
	root := t.TempDir()
	writeCapturedRun(t, root, "torn")
	path := filepath.Join(root, "torn", whatif.ScheduleFileName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	writeRun(t, root, "interrupted")
	tmp := filepath.Join(root, "interrupted", whatif.ScheduleFileName+".123.tmp")
	if err := os.WriteFile(tmp, []byte("APSC\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	res, body := get(t, h, "/runs/torn/whatif")
	if res.StatusCode < 400 {
		t.Errorf("truncated schedule: status %d, want an error: %s", res.StatusCode, body)
	}
	if !strings.Contains(body, "truncated") {
		t.Errorf("truncated schedule error does not say so: %s", body)
	}
	res, body = get(t, h, "/runs/interrupted/whatif")
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("leftover temporary file: status %d, want 404: %s", res.StatusCode, body)
	}
}
