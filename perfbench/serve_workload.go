package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"actorprof/internal/serve"
	"actorprof/internal/trace"
	"actorprof/internal/whatif"
)

// Serve-mix sizes: traces from the two profile pipelines on smaller
// inputs, so set-up stays short and an uncached what-if stays well
// under a second.
const (
	serveTCScale    = 10
	serveISortKeys  = 25_000
	serveClients    = 2
	serveWarmupReqs = 100 // per client, before timing
)

// serveSetup writes the served traces into root: one triangle-counting
// run with its schedule and one isort run, each through the same
// pipeline as the profile workloads, then backfills their time indexes
// as `actorprofd -backfill` does. It returns the script's view of the
// runs.
func serveSetup(seed uint64, root string, c *checks) ([]serveTarget, error) {
	tc, err := tcInput(seed, serveTCScale, machine2n)
	if err != nil {
		return nil, err
	}
	is, err := isortInput(seed, serveISortKeys, machine2n)
	if err != nil {
		return nil, err
	}
	var targets []serveTarget
	for _, in := range []*appInput{tc, is} {
		dir := filepath.Join(root, in.name)
		set, sched, _, err := profileRun(in, true, nil)
		if err != nil {
			return nil, err
		}
		c.check(in.check())
		// The time index is built from the binary physical trace only, so
		// the served traces are binary: the backfill this workload names
		// has nothing to index in the CSV default.
		set.Config.Format = trace.FormatBinary
		if err := set.WriteFiles(dir); err != nil {
			return nil, err
		}
		if sched != nil {
			if err := whatif.WriteScheduleFile(dir, sched); err != nil {
				return nil, err
			}
		}
		built, err := trace.BuildTimeIndex(dir)
		if err != nil {
			return nil, err
		}
		if !built {
			c.check(fmt.Errorf("%s: no time index built", dir))
		} else {
			c.check(nil)
		}
		span, err := trace.QueryWindow(dir, trace.Window{T0: math.MinInt64, T1: math.MaxInt64, LOD: 1})
		if err != nil {
			return nil, err
		}
		targets = append(targets, serveTarget{ID: in.name, T0: span.TMin, T1: span.TMax + 1, Schedule: sched != nil})
	}
	return targets, nil
}

// served is one completed request.
type served struct {
	class   string
	latency time.Duration
	bytes   int64
}

// response is a reusable http.ResponseWriter: each client keeps one, so
// buffering a response body costs the client no allocation and the
// measured latency is the server's.
type response struct {
	code   int
	header http.Header
	body   bytes.Buffer
}

func (r *response) reset() {
	r.code = 0
	clear(r.header)
	r.body.Reset()
}

func (r *response) Header() http.Header { return r.header }

func (r *response) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *response) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

// client runs one closed-loop client: it sends its next request only
// after the previous one completes, and keeps the ETags it has seen.
type client struct {
	h     http.Handler
	sc    *script
	c     *checks
	etags map[string]string
	resp  response
	done  []served
}

func newClient(h http.Handler, sc *script, c *checks) *client {
	return &client{h: h, sc: sc, c: c, etags: map[string]string{}, resp: response{header: http.Header{}}}
}

// do sends one request and checks the response.
func (cl *client) do(r request, tr *tracer, parent, tid int, reqID int64) {
	req := httptest.NewRequest(http.MethodGet, r.Path, nil)
	key := r.Path
	if r.Gzip {
		req.Header.Set("Accept-Encoding", "gzip")
		key += " gzip"
	}
	etag, revalidate := cl.etags[key]
	revalidate = revalidate && r.Revalidate
	if revalidate {
		req.Header.Set("If-None-Match", etag)
	}
	rec := &cl.resp
	rec.reset()
	id := tr.begin("serve."+r.Class, parent, tid, reqID)
	t0 := time.Now()
	cl.h.ServeHTTP(rec, req)
	lat := time.Since(t0)
	tr.end(id)
	cl.done = append(cl.done, served{class: r.Class, latency: lat, bytes: int64(rec.body.Len())})
	err := checkResponse(r, rec, revalidate)
	if err == nil && rec.code == http.StatusOK {
		if e := rec.header.Get("ETag"); e != "" {
			cl.etags[key] = e
		}
	}
	cl.c.check(err)
}

// checkResponse checks the status (200, or 304 for a revalidation) and
// that a 200 body parses as the SVG or JSON the path asks for.
func checkResponse(r request, rec *response, revalidate bool) error {
	switch {
	case rec.code == http.StatusNotModified && revalidate:
		return nil
	case rec.code != http.StatusOK:
		return fmt.Errorf("%s: status %d: %s", r.Path, rec.code, strings.TrimSpace(rec.body.String()))
	}
	body := rec.body.Bytes()
	if rec.header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("%s: %w", r.Path, err)
		}
		if body, err = io.ReadAll(zr); err != nil {
			return fmt.Errorf("%s: %w", r.Path, err)
		}
	}
	path, _, _ := strings.Cut(r.Path, "?")
	if strings.HasSuffix(path, ".svg") {
		return checkSVG(r.Path, body)
	}
	if !json.Valid(body) {
		return fmt.Errorf("%s: body is not JSON (%d bytes)", r.Path, len(body))
	}
	return nil
}

// pass runs every client's script until the deadline.
func pass(h http.Handler, seed uint64, streamBase int, targets []serveTarget, c *checks,
	until func(n int) bool, tr *tracer) [][]served {
	var wg sync.WaitGroup
	out := make([][]served, serveClients)
	for i := 0; i < serveClients; i++ {
		cl := newClient(h, newScript(seed, streamBase+i, targets), c)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tid := i + 1
			root := tr.begin(fmt.Sprintf("client %d", i), 0, tid, 0)
			for n := 0; !until(n); n++ {
				cl.do(cl.sc.next(), tr, root, tid, int64(n+1))
			}
			tr.end(root)
			out[i] = cl.done
		}(i)
	}
	wg.Wait()
	return out
}

// forDuration stops a pass after d.
func forDuration(d time.Duration) func(int) bool {
	deadline := time.Now().Add(d)
	return func(int) bool { return time.Now().After(deadline) }
}

// forCount stops a pass after n requests per client.
func forCount(n int) func(int) bool { return func(i int) bool { return i >= n } }

// passStats summarizes a measured pass.
type passStats struct {
	n                  int
	wall               time.Duration
	lat                []float64 // ms
	byClass            map[string][]float64
	bytes              float64
	allocBytes, rssMax float64
}

// measure runs one timed pass and summarizes it.
func measure(h http.Handler, seed uint64, targets []serveTarget, c *checks, d time.Duration, tr *tracer) passStats {
	before := readRuntime()
	peaks := startPeakSampler()
	t0 := time.Now()
	res := pass(h, seed, 0, targets, c, forDuration(d), tr)
	st := passStats{wall: time.Since(t0), byClass: map[string][]float64{}}
	st.rssMax, _ = peaks.stop()
	st.allocBytes = delta(before, readRuntime(), rmAllocBytes)
	for _, cl := range res {
		for _, s := range cl {
			ms := float64(s.latency.Nanoseconds()) / 1e6
			st.lat = append(st.lat, ms)
			st.byClass[s.class] = append(st.byClass[s.class], ms)
			st.bytes += float64(s.bytes)
			st.n++
		}
	}
	return st
}

func (st passStats) e2e() endToEnd {
	n := float64(st.n)
	return endToEnd{
		throughput: n / st.wall.Seconds(),
		p50ms:      median(st.lat),
		allocPerOp: st.allocBytes / n,
		outPerOp:   st.bytes / n,
	}
}

func runServeMix(cfg runConfig, c *checks, m metrics) error {
	var targets []serveTarget
	var root string
	reps := 0
	setup := func() (time.Duration, error) {
		if root != "" {
			if err := os.RemoveAll(root); err != nil {
				return 0, err
			}
		}
		freshHeap()
		root = filepath.Join(cfg.work, fmt.Sprintf("serve-root-%d", reps))
		reps++
		t0 := time.Now()
		var err error
		targets, err = serveSetup(cfg.seed, root, c)
		return time.Since(t0), err
	}
	times, err := setupRound(nil, setup)
	if err != nil {
		return err
	}
	freshHeap()
	srv, err := serve.New(serve.Config{Root: root})
	if err != nil {
		return err
	}
	// Warm-up on separate script streams, so the measured scripts start
	// at their beginning against a warm cache.
	pass(srv.Handler(), cfg.seed, serveClients, targets, c, forCount(serveWarmupReqs), nil)
	if cfg.trace {
		return tracedServe(cfg, c, m, root, targets, srv)
	}
	st := measure(srv.Handler(), cfg.seed, targets, c, cfg.seconds, nil)
	if times, err = setupRound(times, setup); err != nil {
		return err
	}
	e := st.e2e()
	if p, v, ok := tailPercentile(st.lat, 10); ok {
		fmt.Fprintf(cfg.log, "serve-mix: %d requests, p50 %.3f ms, p%g %.3f ms\n", st.n, e.p50ms, p, v)
	}
	m.set("setup_s", median(times), "s")
	m.set("throughput", e.throughput, "1/s")
	m.set("p50_ms", e.p50ms, "ms")
	m.set("alloc_bytes_per_op", e.allocPerOp, "B/op")
	m.set("out_bytes_per_op", e.outPerOp, "B/op")
	m.set("peak_rss_mb", st.rssMax/(1<<20), "MB")
	return nil
}

// tracedServe measures one untraced pass, then a traced pass on a fresh
// server (whose first request per run pays the parse), and reports the
// per-layer metrics of the traced pass.
func tracedServe(cfg runConfig, c *checks, m metrics, root string, targets []serveTarget, warm *serve.Server) error {
	half := cfg.seconds / 2 // one untraced and one traced pass
	u := measure(warm.Handler(), cfg.seed, targets, c, half, nil)

	srv, err := serve.New(serve.Config{Root: root})
	if err != nil {
		return err
	}
	tr := newTracer()
	threads := map[int]string{}
	for i := 0; i < serveClients; i++ {
		threads[i+1] = fmt.Sprintf("client %d", i)
	}
	threads[serveClients+1] = "cold parse"
	cold := newClient(srv.Handler(), nil, c)
	var coldMs []float64
	for _, t := range targets {
		cold.do(request{Class: "cold_parse", Path: "/runs/" + t.ID + "/plots/logical-heatmap.json"}, tr, 0, serveClients+1, 0)
		coldMs = append(coldMs, float64(cold.done[len(cold.done)-1].latency.Nanoseconds())/1e6)
	}
	pass(srv.Handler(), cfg.seed, serveClients, targets, c, forCount(serveWarmupReqs), nil)

	sm := srv.Metrics()
	hits0, misses0, nm0 := sm.CacheHits(), sm.CacheMisses(), sm.NotModified()
	blocks0, scans0 := sm.WindowBlocksRead(), sm.WindowFullScans()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	rt0 := readRuntime()
	heap := startPeakSampler()
	t := measure(srv.Handler(), cfg.seed, targets, c, half, tr)
	_, heapPeak := heap.stop()
	rt1 := readRuntime()
	pprof.StopCPUProfile()

	samples, err := parseCPUProfile(&prof)
	if err != nil {
		return err
	}
	shares, nsamples := layerShares(samples)
	for _, class := range []string{"plot", "events", "whatif", "runs"} {
		if lat := t.byClass[class]; len(lat) > 0 {
			m.set("serve."+class+"_p50_ms", median(lat), "ms")
		}
	}
	if p, v, ok := tailPercentile(t.lat, 10); ok {
		m.set("serve.tail_ms", v, "ms")
		m.set("serve.tail_pct", p, "%")
	}
	var whatifMs, allMs float64
	for _, v := range t.byClass["whatif"] {
		whatifMs += v
	}
	for _, v := range t.lat {
		allMs += v
	}
	m.set("serve.whatif_time_frac", whatifMs/allMs, "ratio")
	m.set("serve.requests", float64(t.n), "count")
	m.set("serve.cold_parse_ms", median(coldMs), "ms")
	if h, ms := sm.CacheHits()-hits0, sm.CacheMisses()-misses0; h+ms > 0 {
		m.set("serve.cache_hit_ratio", float64(h)/float64(h+ms), "ratio")
	}
	m.set("serve.not_modified", float64(sm.NotModified()-nm0), "count")
	m.set("serve.window_blocks_read", float64(sm.WindowBlocksRead()-blocks0), "count")
	m.set("serve.window_full_scans", float64(sm.WindowFullScans()-scans0), "count")
	setRuntimeMetrics(m, rt0, rt1, heapPeak)
	setCPUShares(m, shares, nsamples)

	setTracingOverhead(m, u.e2e(), t.e2e())
	return writeTraceOutputs(cfg, tr, "perfbench serve-mix", threads, m)
}
