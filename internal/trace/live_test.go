package trace

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"actorprof/internal/conveyor"
)

// apbfFile encodes one APBF file holding one block per rows group. torn
// cuts the final byte, leaving the last block claiming a row it does
// not hold - the state a streaming writer leaves when its buffer has
// flushed mid-block.
func apbfFile(t *testing.T, kind byte, ncols int, torn bool, blocks ...[][]int64) string {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	b := newBinWriter(w, kind, ncols)
	for _, rows := range blocks {
		for _, row := range rows {
			b.push(row...)
		}
		b.flushBlock()
	}
	if err := b.finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if torn {
		out = out[:len(out)-1]
	}
	return string(out)
}

// writeLiveDir lays out a trace directory the way a streaming collector
// leaves it mid-run: meta present, logical APBF shards with a torn final
// block (the writer's buffer flushed mid-record), and per-PE physical
// .part.bin files not yet assembled into physical.bin.
func writeLiveDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	local, nonblock := int64(conveyor.LocalSend), int64(conveyor.NonblockSend)
	files := map[string]string{
		"actorprof_meta.txt": "num_PEs 2\nPEs_per_node 2\nlogical_sample 1\n",
		"PE0_send.bin": apbfFile(t, binKindLogical, 5, true,
			[][]int64{{0, 0, 0, 1, 8}, {0, 0, 0, 1, 16}}, [][]int64{{0, 0, 0, 1, 24}}),
		"PE1_send.bin": apbfFile(t, binKindLogical, 5, false, [][]int64{{0, 1, 0, 0, 8}}),
		"physical.PE0.part.bin": apbfFile(t, binKindPhysical, binPhysicalCols, true,
			[][]int64{{local, 64, 0, 1, 10}, {nonblock, 128, 0, 1, 20}}, [][]int64{{nonblock, 64, 0, 1, 30}}),
		"physical.PE1.part.bin": apbfFile(t, binKindPhysical, binPhysicalCols, false,
			[][]int64{{local, 32, 1, 0, 15}}),
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestReadSetLiveToleratesInProgressDir(t *testing.T) {
	dir := writeLiveDir(t)

	// The strict reader must refuse the torn logical block.
	if _, _, err := ReadSet(dir, ReadOptions{}); err == nil {
		t.Fatal("strict ReadSet accepted a torn logical block")
	}

	s, skipped, err := ReadSet(dir, ReadOptions{Tolerant: true})
	if err != nil {
		t.Fatalf("tolerant ReadSet: %v", err)
	}
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2 (one torn logical, one torn physical)", skipped)
	}
	if !s.Config.Logical || len(s.Logical[0]) != 2 || len(s.Logical[1]) != 1 {
		t.Errorf("logical records = %d/%d, want 2/1", len(s.Logical[0]), len(s.Logical[1]))
	}
	// Physical records come from the merged .part files.
	if !s.Config.Physical {
		t.Fatal("physical feature not detected from .part files")
	}
	if len(s.Physical[0]) != 2 || len(s.Physical[1]) != 1 {
		t.Errorf("physical records = %d/%d, want 2/1", len(s.Physical[0]), len(s.Physical[1]))
	}
}

func TestReadSetLiveMatchesReadSetOnFinishedDir(t *testing.T) {
	dir := t.TempDir()
	s := buildSet(t)
	if err := s.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	strict, _, err := ReadSet(dir, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	live, skipped, err := ReadSet(dir, ReadOptions{Tolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d on a finished dir, want 0", skipped)
	}
	if len(live.Logical[0]) != len(strict.Logical[0]) ||
		len(live.Overall) != len(strict.Overall) ||
		live.Config.Logical != strict.Config.Logical ||
		live.Config.Physical != strict.Config.Physical ||
		live.Config.Overall != strict.Config.Overall {
		t.Error("live read of a finished dir differs from the strict read")
	}
}
