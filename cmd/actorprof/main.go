// Command actorprof is the ActorProf visualization utility: it renders
// the trace files a profiled run produced (the APBF files runs write, or
// the paper's PEi_send.csv, PEi_PAPI.csv, overall.txt, physical.txt) as
// terminal plots and, optionally, SVG documents.
//
// It mirrors the paper's run-time flags:
//
//	-l    logical-trace heatmap      (logical.py)
//	-lp   PAPI bar graph             (papi.py)
//	-s    overall stacked bar graph  (Overall.py), absolute and relative
//	-p    physical-trace heatmap     (physical.py)
//
// plus the quartile violin plots of the case study:
//
//	-violin        logical+physical violins
//	-svg DIR       also write every selected plot as an SVG into DIR
//	-event NAME    PAPI event for -lp (default PAPI_TOT_INS)
//
// Usage:
//
//	actorprof [flags] <trace-dir>
//	actorprof export [-format perfetto|paper] [-out path] [-timeline file.svg] [-index] <trace-dir>
//
// With no plot flags, every plot the trace directory supports is
// rendered. The export subcommand writes the physical trace as a
// full-model Perfetto / chrome://tracing document (durations, counters,
// process metadata; Google Trace Event JSON, a paper future-work item),
// or with -format paper converts the whole trace into the paper's
// CSV/text formats in another directory. It can also rebuild the
// time-index sidecar (-index) and render the windowed activity timeline
// as SVG (-timeline).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"actorprof/internal/core"
	"actorprof/internal/papi"
	"actorprof/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "actorprof:", err)
		os.Exit(1)
	}
}

// runExport is the "actorprof export <trace-dir>" subcommand: it writes
// the physical trace in the full-model Perfetto form, or (-format paper)
// the whole trace in the paper's CSV/text formats into another
// directory; optionally it rebuilds the time-index sidecar first and
// renders the windowed activity timeline as SVG.
func runExport(args []string) error {
	fs := flag.NewFlagSet("actorprof export", flag.ContinueOnError)
	var (
		format = fs.String("format", "perfetto", "export format: perfetto (Trace Event JSON) | paper (the paper's CSV/text trace files)")
		out    = fs.String("out", "",
			`perfetto: output file (default <trace-dir>/trace.perfetto.json, "-" for stdout); paper: output directory (required)`)
		timeline = fs.String("timeline", "", "also render the activity timeline SVG to this file")
		lod      = fs.Int("lod", 1, "pyramid level of detail for -timeline (>= 1)")
		index    = fs.Bool("index", false, "(re)build the time-index sidecar (physical.idx) before exporting")
		workers  = fs.Int("workers", 0, "parallel trace-parse workers (0 = GOMAXPROCS)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: actorprof export [-format perfetto|paper] [-out path] [-timeline file.svg] [-index] <trace-dir>")
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
	if *format != "perfetto" && *format != "paper" {
		return fmt.Errorf("unknown -format %q (want perfetto or paper)", *format)
	}
	if *format == "paper" {
		if *out == "" {
			return fmt.Errorf("-format paper needs -out DIR")
		}
		if sameDir(*out, dir) {
			return fmt.Errorf("-out %s is the trace directory itself; export the paper format into another directory", *out)
		}
	}

	if *index {
		built, err := trace.BuildTimeIndex(dir)
		if err != nil {
			return fmt.Errorf("building time index for %s: %w", dir, err)
		}
		if built {
			fmt.Fprintf(os.Stderr, "actorprof: rebuilt time index for %s\n", dir)
		}
	}

	full, _, err := trace.ReadSet(dir, trace.ReadOptions{Workers: *workers})
	if err != nil {
		return fmt.Errorf("reading trace directory %s: %w", dir, err)
	}
	if *format == "paper" {
		full.Config.Format = trace.FormatCSV
		if err := full.WriteFiles(*out); err != nil {
			return err
		}
		fmt.Printf("wrote the paper's CSV trace files to %s\n", *out)
	} else if err := exportPerfetto(full, dir, *out); err != nil {
		return err
	}

	if *timeline != "" {
		if *lod < 1 {
			return fmt.Errorf("-timeline needs -lod >= 1, got %d", *lod)
		}
		res, err := trace.QueryWindow(dir, trace.Window{T0: math.MinInt64, T1: math.MaxInt64, LOD: *lod})
		if err != nil {
			return err
		}
		tl, err := core.ActivityTimeline(res,
			fmt.Sprintf("Physical transfers over time (LOD %d)", res.LOD))
		if err != nil {
			return err
		}
		doc, err := tl.RenderSVG()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*timeline, []byte(doc), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote activity timeline SVG to %s\n", *timeline)
	}
	return nil
}

// exportPerfetto writes full's physical trace as Perfetto JSON to dest
// (default <dir>/trace.perfetto.json, "-" for stdout).
func exportPerfetto(full *trace.Set, dir, dest string) (err error) {
	if !full.Config.Physical {
		return fmt.Errorf("trace %s has no physical trace; nothing to export", dir)
	}
	if dest == "" {
		dest = filepath.Join(dir, "trace.perfetto.json")
	}
	if dest == "-" {
		return full.ExportPerfetto(os.Stdout)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	err = full.ExportPerfetto(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Printf("wrote Trace Event JSON to %s\n", dest)
	}
	return err
}

// sameDir reports whether path names the directory dir, through any
// spelling or link.
func sameDir(path, dir string) bool {
	a, errA := os.Stat(path)
	b, errB := os.Stat(dir)
	return errA == nil && errB == nil && os.SameFile(a, b)
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "export" {
		return runExport(args[1:])
	}
	if len(args) > 0 && args[0] == "whatif" {
		return runWhatIf(args[1:])
	}
	fs := flag.NewFlagSet("actorprof", flag.ContinueOnError)
	var (
		logical   = fs.Bool("l", false, "render the logical-trace heatmap")
		papiBar   = fs.Bool("lp", false, "render the PAPI counter bar graph")
		overall   = fs.Bool("s", false, "render the overall MAIN/COMM/PROC stacked bars")
		physical  = fs.Bool("p", false, "render the physical-trace heatmap")
		violins   = fs.Bool("violin", false, "render quartile violin plots")
		svgDir    = fs.String("svg", "", "directory to also write SVG files into")
		eventName = fs.String("event", "PAPI_TOT_INS", "PAPI event for -lp")
		workers   = fs.Int("workers", 0, "parallel trace-parse workers (0 = GOMAXPROCS)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: actorprof [-l] [-lp] [-s] [-p] [-violin] [-svg dir] <trace-dir>")
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

	// Every standard plot consumes only aggregate matrices, so the trace
	// is folded into an O(PEs^2) Summary while it streams off disk.
	set, _, err := trace.ReadSummary(dir, trace.ReadOptions{Workers: *workers})
	if err != nil {
		return fmt.Errorf("reading trace directory %s: %w", dir, err)
	}
	fmt.Printf("trace: %s (%d PEs, %d per node)\n\n", dir, set.NumPEs, set.PEsPerNode)

	all := !*logical && !*papiBar && !*overall && !*physical && !*violins
	// Degenerate and partial directories must produce a friendly error,
	// not a silent no-op (or, historically, a stats panic on empty violin
	// input): tell the user which feature the trace is missing.
	if !all {
		switch {
		case *logical && !set.Config.Logical:
			return fmt.Errorf("trace %s has no logical trace (-l needs logical records; enable trace.Config.Logical)", dir)
		case *physical && !set.Config.Physical:
			return fmt.Errorf("trace %s has no physical trace (-p needs physical records; enable trace.Config.Physical)", dir)
		case *violins && !set.Config.Logical && !set.Config.Physical:
			return fmt.Errorf("trace %s has neither logical nor physical records; nothing to plot with -violin", dir)
		case *papiBar && len(set.Config.PAPIEvents) == 0:
			return fmt.Errorf("trace %s has no PAPI events (-lp needs PAPI records and papi_events in the meta file)", dir)
		case *overall && !set.Config.Overall:
			return fmt.Errorf("trace %s has no overall breakdown (-s needs overall records; enable trace.Config.Overall)", dir)
		}
	} else if !set.Config.Logical && !set.Config.Physical && !set.Config.Overall &&
		len(set.Config.PAPIEvents) == 0 {
		return fmt.Errorf("trace %s has no renderable data (only the meta file); was the run traced?", dir)
	}
	svg := func(name, doc string) error {
		if *svgDir == "" {
			return nil
		}
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*svgDir, name), []byte(doc), 0o644)
	}

	if (*logical || all) && set.Config.Logical {
		hm := core.LogicalHeatmap(set, "Logical Trace (pre-aggregation sends)")
		if err := hm.RenderText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		doc, err := hm.RenderSVG()
		if err != nil {
			return err
		}
		if err := svg("logical_heatmap.svg", doc); err != nil {
			return err
		}
	}
	if (*physical || all) && set.Config.Physical {
		hm := core.PhysicalHeatmap(set, "Physical Trace (post-aggregation buffers)")
		if err := hm.RenderText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		doc, err := hm.RenderSVG()
		if err != nil {
			return err
		}
		if err := svg("physical_heatmap.svg", doc); err != nil {
			return err
		}
	}
	if (*violins || all) && set.Config.Logical {
		v := core.LogicalViolin(set, "Logical sends/recvs per PE (quartiles)")
		if err := v.RenderText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		doc, err := v.RenderSVG()
		if err != nil {
			return err
		}
		if err := svg("logical_violin.svg", doc); err != nil {
			return err
		}
	}
	if (*violins || all) && set.Config.Physical {
		v := core.PhysicalViolin(set, "Physical buffers per PE (quartiles)")
		if err := v.RenderText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		doc, err := v.RenderSVG()
		if err != nil {
			return err
		}
		if err := svg("physical_violin.svg", doc); err != nil {
			return err
		}
	}
	if (*papiBar || all) && len(set.Config.PAPIEvents) > 0 {
		ev, err := papi.EventByName(*eventName)
		if err != nil {
			return err
		}
		bar := core.PAPIBar(set, ev, fmt.Sprintf("%s per PE (user regions)", ev))
		if err := bar.RenderText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		doc, err := bar.RenderSVG()
		if err != nil {
			return err
		}
		if err := svg("papi_bar.svg", doc); err != nil {
			return err
		}
		// The full -lp view: every recorded counter in one grouped plot.
		if len(set.Config.PAPIEvents) > 1 {
			gb := core.PAPIGroupedBar(set, "All PAPI counters per PE (one run)")
			if err := gb.RenderText(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
			doc, err := gb.RenderSVG()
			if err != nil {
				return err
			}
			if err := svg("papi_grouped.svg", doc); err != nil {
				return err
			}
		}
	}
	if (*physical || all) && set.Config.Physical && set.NumPEs > set.PEsPerNode {
		hm := core.NodeHeatmap(set, "Node-level network hotspots")
		if err := hm.RenderText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		doc, err := hm.RenderSVG()
		if err != nil {
			return err
		}
		if err := svg("node_heatmap.svg", doc); err != nil {
			return err
		}
	}
	if (*overall || all) && set.Config.Overall {
		for _, mode := range []struct {
			rel  bool
			name string
			file string
		}{
			{false, "Overall breakdown (absolute cycles)", "overall_absolute.svg"},
			{true, "Overall breakdown (relative)", "overall_relative.svg"},
		} {
			sb := core.OverallStacked(set, mode.rel, mode.name)
			if err := sb.RenderText(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
			doc, err := sb.RenderSVG()
			if err != nil {
				return err
			}
			if err := svg(mode.file, doc); err != nil {
				return err
			}
		}
	}
	if all || *papiBar {
		// Named user segments, when the trace has any.
		hasSegs := false
		for _, recs := range set.Segments {
			if len(recs) > 0 {
				hasSegs = true
				break
			}
		}
		if hasSegs {
			fmt.Println("User segments (per PE):")
			for pe := 0; pe < set.NumPEs; pe++ {
				for _, s := range set.Segments[pe] {
					fmt.Printf("  [PE%d] %-24s count=%-8d cycles=%-12d", pe, s.Name, s.Count, s.Cycles)
					for i, ev := range set.Config.PAPIEvents {
						if i < len(s.Counters) {
							fmt.Printf(" %s=%d", ev, s.Counters[i])
						}
					}
					fmt.Println()
				}
			}
			fmt.Println()
		}
	}
	return nil
}
