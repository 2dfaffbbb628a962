package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

var testTargets = []serveTarget{
	{ID: "tc", T0: 100, T1: 5_000_000, Schedule: true},
	{ID: "isort", T0: 7, T1: 900_000},
}

// scriptBytes serializes a client's first 500 requests.
func scriptBytes(t *testing.T, seed uint64, client int) []byte {
	t.Helper()
	var b bytes.Buffer
	sc := newScript(seed, client, testTargets)
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "%+v\n", sc.next())
	}
	return b.Bytes()
}

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	a, b := scriptBytes(t, 7, 0), scriptBytes(t, 7, 0)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and client produced different scripts")
	}
	if bytes.Equal(a, scriptBytes(t, 8, 0)) {
		t.Error("different seeds produced identical scripts")
	}
	if bytes.Equal(a, scriptBytes(t, 7, 1)) {
		t.Error("different clients produced identical scripts")
	}
}

func TestScriptClassMixIsExactPerBlock(t *testing.T) {
	sc := newScript(3, 0, testTargets)
	for block := 0; block < 20; block++ {
		n := map[string]int{}
		for i := 0; i < blockLen; i++ {
			r := sc.next()
			n[r.Class]++
			if r.Class == "whatif" && !strings.HasPrefix(r.Path, "/runs/tc/") {
				t.Fatalf("what-if sent to a run without a schedule: %s", r.Path)
			}
		}
		if n["whatif"] != blockWhatIfs || n["runs"] != blockRuns || n["events"] != blockEvents ||
			n["plot"] != blockLen-blockWhatIfs-blockRuns-blockEvents {
			t.Fatalf("block %d class mix %v", block, n)
		}
	}
}
