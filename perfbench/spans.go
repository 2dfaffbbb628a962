package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	Name   string
	ID     int
	Parent int // 0 = root
	// Tid is the run slot or client the span belongs to; Req groups the
	// spans of one client's request stream.
	Tid        int
	Req        int64
	Start, End time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs carry no instrumentation beyond a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, tid int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Tid: tid, Req: req, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed duration minus the time
// covered by direct children.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start
	}
	for _, s := range t.spans {
		if s.Parent != 0 {
			p := t.spans[s.Parent-1]
			self[p.Name] -= s.End - s.Start
		}
	}
	return self
}

// traceEvent is one Chrome Trace Event Format record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome Trace Event JSON, loadable in
// Perfetto: one process (the workload) and one thread per run slot or
// client, each span a complete ("X") event carrying its ID, parent and
// request.
func (t *tracer) writeChrome(w io.Writer, process string, threads map[int]string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	events := []traceEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	tids := make([]int, 0, len(threads))
	for tid := range threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": threads[tid]}})
	}
	for _, s := range spans {
		end := s.End
		if end < s.Start {
			end = s.Start // never closed: a zero-length marker
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Req != 0 {
			args["req"] = s.Req
		}
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Tid,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((end - s.Start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
