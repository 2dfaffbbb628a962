package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestChromeTraceFieldsAndNesting(t *testing.T) {
	tr := newTracer()
	for client := 1; client <= 2; client++ {
		root := tr.begin("client", 0, client, 0)
		for req := int64(1); req <= 3; req++ {
			id := tr.begin("serve.plot", root, client, req)
			inner := tr.begin("render", id, client, req)
			time.Sleep(time.Millisecond)
			tr.end(inner)
			tr.end(id)
		}
		tr.end(root)
	}
	var b bytes.Buffer
	if err := tr.writeChrome(&b, "perfbench test", map[int]string{1: "client 0", 2: "client 1"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type iv struct{ ts, end, tid float64 }
	byID := map[float64]iv{}
	var complete []map[string]any
	meta := 0
	for _, ev := range doc.TraceEvents {
		for _, f := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[f]; !ok {
				t.Fatalf("event %v lacks %q", ev, f)
			}
		}
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			for _, f := range []string{"ts", "dur", "args"} {
				if _, ok := ev[f]; !ok {
					t.Fatalf("complete event %v lacks %q", ev, f)
				}
			}
			args := ev["args"].(map[string]any)
			ts, dur := ev["ts"].(float64), ev["dur"].(float64)
			byID[args["id"].(float64)] = iv{ts, ts + dur, ev["tid"].(float64)}
			complete = append(complete, ev)
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if meta != 3 || len(complete) != 14 {
		t.Fatalf("%d metadata and %d complete events, want 3 and 14", meta, len(complete))
	}
	for _, ev := range complete {
		args := ev["args"].(map[string]any)
		parent := args["parent"].(float64)
		if parent == 0 {
			continue
		}
		c, p := byID[args["id"].(float64)], byID[parent]
		if c.tid != p.tid || c.ts < p.ts || c.end > p.end {
			t.Errorf("span %v is not nested in its parent %v", c, p)
		}
	}
	self := tr.selfTimes()
	if self["render"] <= 0 || self["serve.plot"] < 0 || self["client"] < 0 {
		t.Errorf("self times %v", self)
	}
}
