package main

import (
	"io"
	"net/http"
	"testing"

	"actorprof/internal/serve"
	"actorprof/internal/sim"
)

var smallMachine = sim.Machine{NumPEs: 4, PEsPerNode: 2}

// The "off" point of the overhead ratio must really be off: no trace
// records and no schedule, even for an input that captures when profiled.
func TestBareRunRecordsNothing(t *testing.T) {
	in, err := tcInput(1, 7, smallMachine)
	if err != nil {
		t.Fatal(err)
	}
	set, sched, _, err := profileRun(in, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := setRecords(set); n != 0 {
		t.Errorf("bare run holds %d trace records", n)
	}
	if sched != nil {
		t.Error("bare run captured a schedule")
	}
	if err := in.check(); err != nil {
		t.Error(err)
	}
	set, sched, _, err = profileRun(in, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if setRecords(set) == 0 || scheduleEvents(sched) == 0 {
		t.Error("profiled run recorded no trace or no schedule")
	}
}

func TestSessionsPassTheirChecks(t *testing.T) {
	tc, err := tcInput(2, 7, smallMachine)
	if err != nil {
		t.Fatal(err)
	}
	is, err := isortInput(2, 2000, smallMachine)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []*appInput{tc, is} {
		c := &checks{log: io.Discard}
		s, err := runSession(in, t.TempDir(), c, sessionOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if c.failed != 0 || c.attempted < 3 {
			t.Errorf("%s: %d of %d checks failed", in.name, c.failed, c.attempted)
		}
		if (s.schedBytes > 0) != in.capture || s.traceBytes == 0 || s.svgBytes == 0 {
			t.Errorf("%s: trace %d B, schedule %d B, SVG %d B", in.name, s.traceBytes, s.schedBytes, s.svgBytes)
		}
	}
}

// An input whose program never ran must fail its output check: the
// checks compare against the serial reference, not against themselves.
func TestChecksAreNotVacuous(t *testing.T) {
	tc, err := tcInput(3, 7, smallMachine)
	if err != nil {
		t.Fatal(err)
	}
	is, err := isortInput(3, 500, smallMachine)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []*appInput{tc, is} {
		if in.check() == nil {
			t.Errorf("%s: outputs of a run that never happened passed the check", in.name)
		}
	}
}

func TestServeMixChecksEveryResponse(t *testing.T) {
	c := &checks{log: io.Discard}
	root := t.TempDir()
	targets, err := serveSetup(5, root, c)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	res := pass(srv.Handler(), 5, 0, targets, c, forCount(2*blockLen), nil)
	if c.failed != 0 || len(res) != serveClients || len(res[0]) != 2*blockLen {
		t.Fatalf("%d of %d checks failed, %d clients", c.failed, c.attempted, len(res))
	}
	// /events windows go through the time index the set-up built.
	if sm := srv.Metrics(); sm.WindowBlocksRead() == 0 || sm.WindowFullScans() != 0 {
		t.Errorf("windows read %d indexed blocks and made %d full scans", sm.WindowBlocksRead(), sm.WindowFullScans())
	}

	rec := &response{header: http.Header{}}
	rec.WriteHeader(http.StatusNotModified)
	if checkResponse(request{Path: "/runs/tc/plots/papi-bar.svg"}, rec, false) == nil {
		t.Error("a 304 without revalidation passed")
	}
	rec.reset()
	rec.Write([]byte("<svg>")) // truncated document
	if checkResponse(request{Path: "/runs/tc/plots/papi-bar.svg"}, rec, false) == nil {
		t.Error("a truncated SVG passed")
	}
	rec.reset()
	rec.Write([]byte("{"))
	if checkResponse(request{Path: "/api/runs"}, rec, false) == nil {
		t.Error("invalid JSON passed")
	}
}
