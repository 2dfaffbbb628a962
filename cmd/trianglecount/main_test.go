package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunEndToEnd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	err := run([]string{"-scale", "9", "-pes", "8", "-per-node", "4",
		"-dist", "range", "-out", dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"PE0_send.bin", "overall.bin", "physical.bin", "actorprof_meta.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing trace file %s: %v", f, err)
		}
	}
}

func TestRunRejectsBadDistribution(t *testing.T) {
	if err := run([]string{"-scale", "8", "-dist", "bogus", "-out", t.TempDir()}); err == nil {
		t.Fatal("expected error for unknown distribution")
	}
}
