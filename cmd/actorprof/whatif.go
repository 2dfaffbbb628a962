package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"actorprof/internal/core"
	"actorprof/internal/whatif"
)

// runWhatIf is the "actorprof whatif <trace-dir>" subcommand: it loads
// the run's recorded schedule, projects the requested perturbation, and
// prints the critical path, the bottleneck ranking, and the projected
// T_MAIN/T_COMM/T_PROC deltas. Every projection is differentially
// validated against a deterministic replay before anything prints.
func runWhatIf(args []string) error {
	fs := flag.NewFlagSet("actorprof whatif", flag.ContinueOnError)
	var (
		network = fs.Float64("scale-network", 0, "scale network latency+per-byte cost by this factor")
		local   = fs.Float64("scale-local", 0, "scale local-copy cost by this factor")
		quiet   = fs.Float64("scale-quiet", 0, "scale quiet/signal latency by this factor")
		instr   = fs.Float64("scale-instr", 0, "scale per-instruction cost by this factor")
		ingest  = fs.Float64("scale-ingest", 0, "scale per-item ingest cost by this factor")
		actor   = fs.Int64("actor", -1, "actor ID for -speedup (from the bottleneck ranking)")
		speedup = fs.Float64("speedup", 0, "make the -actor handler this many times faster")
		top     = fs.Int("top", 8, "bottleneck entries to print")
		edges   = fs.Int("edges", 12, "critical-path edges to print per window")
		svgDir  = fs.String("svg", "", "also write whatif.svg and bottleneck.svg into this directory")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: actorprof whatif [-scale-network F] [-scale-local F] [-scale-quiet F] [-scale-instr F] [-scale-ingest F] [-actor ID -speedup F] [-svg dir] <trace-dir>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one trace directory, got %d args", fs.NArg())
	}
	dir := fs.Arg(0)

	sched, err := whatif.ReadScheduleFile(dir)
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%s has no %s: the run was not captured, or predates the binary schedule format (schedule.json is no longer read); re-capture it by re-running the workload (e.g. trianglecount)", dir, whatif.ScheduleFileName)
	}
	if err != nil {
		return err
	}

	scales := whatif.CostScales{Network: *network, Local: *local, Quiet: *quiet, Instr: *instr, Ingest: *ingest}
	pert := whatif.Perturbation{Cost: whatif.ScaledCost(sched.Cost, scales)}
	if *speedup > 0 {
		if *actor < 0 {
			return fmt.Errorf("-speedup needs -actor <id>; run without -speedup first to see the bottleneck ranking's actor IDs")
		}
		pert.HandlerSpeedup = map[int64]float64{*actor: *speedup}
	}

	rep, err := core.WhatIf(sched, pert)
	if err != nil {
		return err
	}

	var hypo []string
	addHypo := func(name string, f float64) {
		if f > 0 && f != 1 {
			hypo = append(hypo, fmt.Sprintf("%s x%g", name, f))
		}
	}
	addHypo("network", *network)
	addHypo("local", *local)
	addHypo("quiet", *quiet)
	addHypo("instr", *instr)
	addHypo("ingest", *ingest)
	if *speedup > 0 {
		hypo = append(hypo, fmt.Sprintf("actor %d handler %gx faster", *actor, *speedup))
	}
	title := "baseline (no perturbation)"
	if len(hypo) > 0 {
		title = strings.Join(hypo, ", ")
	}
	fmt.Printf("what-if over %s: %s\n", dir, title)
	fmt.Printf("(projection validated bit-for-bit against a deterministic replay)\n\n")

	if err := core.WhatIfPlot(rep, "projected totals").RenderText(os.Stdout); err != nil {
		return err
	}

	fmt.Printf("\ncritical path (baseline):\n")
	for _, w := range rep.Baseline.Windows {
		fmt.Printf("  window %d: [%d, %d) span %d cycles, %d edges\n",
			w.Index, w.Start, w.End, w.Span, len(w.Path.Edges))
		for i, e := range w.Path.Edges {
			if i >= *edges {
				fmt.Printf("    ... %d more edges\n", len(w.Path.Edges)-i)
				break
			}
			b := e.Breakdown
			fmt.Printf("    PE %d gen %d: %d cycles (MAIN %d, COMM %d, PROC %d; net %d, quiet %d, instr %d, ingest %d)\n",
				e.PE, e.Gen, e.End-e.Start, b.Main, b.Comm, b.Proc, b.Network, b.Quiet, b.Instr, b.Ingest)
		}
	}

	if len(rep.Baseline.Bottlenecks) > 0 {
		fmt.Printf("\n")
		if err := core.BottleneckPlot(rep.Baseline, *top, "bottleneck ranking (baseline)").RenderText(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("(speed one up with: actorprof whatif -actor %d -speedup 2 %s)\n",
			rep.Baseline.Bottlenecks[0].Actor, dir)
	}

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		for name, svg := range map[string]interface {
			RenderSVG() (string, error)
		}{
			"whatif":     core.WhatIfPlot(rep, "what-if: "+title),
			"bottleneck": core.BottleneckPlot(rep.Projected, *top, "bottleneck ranking (projected)"),
		} {
			doc, err := svg.RenderSVG()
			if err != nil {
				return err
			}
			path := filepath.Join(*svgDir, name+".svg")
			if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	return nil
}
