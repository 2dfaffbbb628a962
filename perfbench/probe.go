package main

import (
	"bytes"
	"math"
	"os"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// Runtime metrics the benchmark reads (all present since go1.21).
const (
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmAllocs     = "/gc/heap/allocs:objects"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU   = "/cpu/classes/total:cpu-seconds"
	rmMutexWait  = "/sync/mutex/wait/total:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
	rmHeapLive   = "/memory/classes/heap/objects:bytes"
)

// rtSnapshot is one reading of the runtime metrics above.
type rtSnapshot struct {
	vals  map[string]float64
	sched *rtmetrics.Float64Histogram
}

func readRuntime() rtSnapshot {
	names := []string{rmAllocBytes, rmAllocs, rmGCCycles, rmGCCPU, rmTotalCPU, rmMutexWait, rmSchedLat}
	samples := make([]rtmetrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	rtmetrics.Read(samples)
	s := rtSnapshot{vals: map[string]float64{}}
	for _, sm := range samples {
		switch sm.Value.Kind() {
		case rtmetrics.KindUint64:
			s.vals[sm.Name] = float64(sm.Value.Uint64())
		case rtmetrics.KindFloat64:
			s.vals[sm.Name] = sm.Value.Float64()
		case rtmetrics.KindFloat64Histogram:
			h := sm.Value.Float64Histogram()
			s.sched = &rtmetrics.Float64Histogram{
				Counts:  append([]uint64(nil), h.Counts...),
				Buckets: append([]float64(nil), h.Buckets...),
			}
		}
	}
	return s
}

// delta returns b[name] - a[name].
func delta(a, b rtSnapshot, name string) float64 { return b.vals[name] - a.vals[name] }

// schedLatency returns the q-quantile (0..1) of goroutine scheduling
// latency between two snapshots, in seconds (bucket upper bound).
func schedLatency(a, b rtSnapshot, q float64) float64 {
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return 0
	}
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum > target {
			if up := b.sched.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return b.sched.Buckets[i] // the open top bucket: its lower bound
		}
	}
	return 0
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssBytes returns the process's resident set size from /proc/self/statm.
func rssBytes() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize())
}

// peakSampler records the highest resident set size, and optionally the
// highest live heap, seen between start and stop.
type peakSampler struct {
	stopc chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	rss   float64
	heap  float64
}

// startPeakSampler samples every 5ms until stop is called.
func startPeakSampler() *peakSampler {
	p := &peakSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	p.sample()
	go func() {
		defer close(p.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stopc:
				return
			case <-t.C:
				p.sample()
			}
		}
	}()
	return p
}

func (p *peakSampler) sample() {
	rss := rssBytes()
	hs := []rtmetrics.Sample{{Name: rmHeapLive}}
	rtmetrics.Read(hs)
	heap := float64(hs[0].Value.Uint64())
	p.mu.Lock()
	p.rss = max(p.rss, rss)
	p.heap = max(p.heap, heap)
	p.mu.Unlock()
}

// stop ends sampling and returns the peak RSS and peak live heap, in
// bytes.
func (p *peakSampler) stop() (rss, heap float64) {
	close(p.stopc)
	<-p.done
	p.sample()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rss, p.heap
}
