package main

import (
	"fmt"
	"math/rand/v2"
)

// serveTarget is one served run as the request script sees it.
type serveTarget struct {
	ID string
	// T0, T1 bound the run's physical trace timestamps; /events windows
	// fall inside them.
	T0, T1 int64
	// Schedule marks a run with a recorded what-if schedule.
	Schedule bool
}

// plotKinds are the plot kinds serve renders for a two-node run with
// every trace feature.
var plotKinds = []string{
	"logical-heatmap", "physical-heatmap", "node-heatmap", "logical-violin", "physical-violin",
	"papi-bar", "papi-grouped", "overall-absolute", "overall-relative",
}

// request is one step of a client's script.
type request struct {
	Class string // plot, events, runs or whatif
	Path  string
	// Revalidate sends If-None-Match with the ETag this client last saw
	// for the path (when it has one), expecting 304.
	Revalidate bool
	Gzip       bool
}

// The script is built in blocks of blockLen requests with a fixed class
// mix, shuffled within the block: the shares hold exactly over every
// block, so two seeds differ in which requests they make, not in how
// many of each class. The shares follow the mix cmd/loadgen documents in
// LOAD.json: Zipf s = 1.1 plot popularity, 25% conditional requests, 50%
// gzip, 5% run listings, and its 10% scan share as /events windows, the
// requests that read past the plot cache. loadgen sends no what-ifs; they
// are kept to 2% because an uncached projection costs far more than any
// other request. None of these shares is measured from real users.
const (
	blockLen      = 100
	blockWhatIfs  = 2
	blockRuns     = 5
	blockEvents   = 10
	revalidatePct = 25
	gzipPct       = 50
	zipfS         = 1.1 // plot popularity skew
)

// script generates one client's requests deterministically from the
// seed and the client index.
type script struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	targets []serveTarget
	plots   []string // kind x run x format, most popular first
	block   []request
	events  int // /events requests made; they cycle over the runs
}

func newScript(seed uint64, client int, targets []serveTarget) *script {
	rng := rand.New(rand.NewPCG(seed, uint64(client)))
	// Popularity follows the catalog order, the same for every seed and
	// client: clients contend for the same hot plots, and the byte mix of
	// a run does not hinge on which plot a seed happens to make hottest.
	var plots []string
	for _, k := range plotKinds {
		for _, t := range targets {
			plots = append(plots, fmt.Sprintf("/runs/%s/plots/%s.svg", t.ID, k), fmt.Sprintf("/runs/%s/plots/%s.json", t.ID, k))
		}
	}
	return &script{
		rng:     rng,
		zipf:    rand.NewZipf(rng, zipfS, 1, uint64(len(plots)-1)),
		targets: targets,
		plots:   plots,
	}
}

// next returns the client's next request.
func (s *script) next() request {
	if len(s.block) == 0 {
		s.fill()
	}
	r := s.block[0]
	s.block = s.block[1:]
	return r
}

func (s *script) fill() {
	classes := make([]string, 0, blockLen)
	for i := 0; i < blockWhatIfs; i++ {
		classes = append(classes, "whatif")
	}
	for i := 0; i < blockRuns; i++ {
		classes = append(classes, "runs")
	}
	for i := 0; i < blockEvents; i++ {
		classes = append(classes, "events")
	}
	for len(classes) < blockLen {
		classes = append(classes, "plot")
	}
	s.rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	for _, c := range classes {
		s.block = append(s.block, s.make(c))
	}
}

func (s *script) make(class string) request {
	r := request{Class: class}
	switch class {
	case "plot":
		r.Path = s.plots[s.zipf.Uint64()]
		r.Revalidate = s.rng.IntN(100) < revalidatePct
		r.Gzip = s.rng.IntN(100) < gzipPct
	case "events":
		t := s.targets[s.events%len(s.targets)]
		s.events++
		span := t.T1 - t.T0
		width := max(1, int64(float64(span)*(0.01+0.09*s.rng.Float64())))
		t0 := t.T0 + int64(float64(span-width)*s.rng.Float64())
		r.Path = fmt.Sprintf("/runs/%s/events?t0=%d&t1=%d", t.ID, t0, t0+width)
		r.Gzip = s.rng.IntN(100) < gzipPct
	case "runs":
		r.Path = "/api/runs"
		if s.rng.IntN(2) == 0 {
			r.Path = fmt.Sprintf("/api/runs?offset=%d&limit=1", s.rng.IntN(len(s.targets)))
		}
	case "whatif":
		var sched []serveTarget
		for _, t := range s.targets {
			if t.Schedule {
				sched = append(sched, t)
			}
		}
		t := sched[s.rng.IntN(len(sched))]
		// Three decimals: repeats (cache hits) are rare.
		r.Path = fmt.Sprintf("/runs/%s/whatif?scale_network=%.3f&scale_instr=%.3f&plot=report&format=json",
			t.ID, 0.25+1.75*s.rng.Float64(), 0.5+s.rng.Float64())
	}
	return r
}
