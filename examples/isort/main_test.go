package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"actorprof/internal/whatif"
)

// TestISortExampleSmoke runs the example at a reduced size in both
// dispatch modes and checks validation passes and trace files land.
func TestISortExampleSmoke(t *testing.T) {
	for _, mode := range []string{"batched", "per-message"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-keys", "500", "-pes", "8", "-per-node", "4", "-width", "64", "-out", dir}
			if mode == "per-message" {
				args = append(args, "-per-message")
			}
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			got := out.String()
			if !strings.Contains(got, "sorted 4000 keys (validated against the sequential reference)") {
				t.Errorf("output missing validation line:\n%s", got)
			}
			entries, err := os.ReadDir(dir)
			if err != nil || len(entries) == 0 {
				t.Fatalf("no trace files written to %s (err=%v)", dir, err)
			}
			if _, err := os.Stat(filepath.Join(dir, whatif.ScheduleFileName)); err != nil {
				t.Errorf("missing captured schedule: %v", err)
			}
		})
	}
}
