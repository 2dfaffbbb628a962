package serve

import (
	"fmt"
	"sort"
	"strings"

	"actorprof/internal/core"
	"actorprof/internal/papi"
	"actorprof/internal/stats"
	"actorprof/internal/trace"
	"actorprof/internal/viz"
)

// statusError carries an HTTP status with an error message.
type statusError struct {
	code int
	msg  string
}

func (e statusError) Error() string { return e.msg }

func noData(format string, args ...any) error {
	return statusError{code: 404, msg: fmt.Sprintf(format, args...)}
}

// artifact is one servable plot kind: an availability check against the
// trace's features, an SVG renderer, and a JSON payload builder. The
// param is the request's ?event= value; only kinds that declare
// usesParam receive it (and key their cache entries on it) - for every
// other kind the parameter is ignored entirely, so it cannot mint
// distinct cache entries for identical bytes.
type artifact struct {
	check     func(s trace.Source) error
	plot      func(s trace.Source, param string) (viz.Plot, error)
	json      func(s trace.Source, param string) (any, error)
	usesParam bool
}

func needLogical(s trace.Source) error {
	if !s.TraceConfig().Logical {
		return noData("run has no logical trace (no logical records)")
	}
	return nil
}

func needPhysical(s trace.Source) error {
	if !s.TraceConfig().Physical {
		return noData("run has no physical trace (no physical records)")
	}
	return nil
}

func needOverall(s trace.Source) error {
	if !s.TraceConfig().Overall {
		return noData("run has no overall breakdown (no overall records)")
	}
	return nil
}

func needPAPI(s trace.Source) error {
	if len(s.TraceConfig().PAPIEvents) == 0 {
		return noData("run has no PAPI events (no papi_events in the meta file)")
	}
	return nil
}

// artifacts is the daemon's plot catalog; the URL plot name is
// "<kind>.svg" or "<kind>.json".
var artifacts = map[string]artifact{
	"logical-heatmap": {
		check: needLogical,
		plot: func(s trace.Source, _ string) (viz.Plot, error) {
			return core.LogicalHeatmap(s, "Logical Trace (pre-aggregation sends)"), nil
		},
		json: func(s trace.Source, _ string) (any, error) {
			return heatmapJSON("Logical Trace (pre-aggregation sends)", "src PE", "dst PE", s.LogicalMatrix()), nil
		},
	},
	"physical-heatmap": {
		check: needPhysical,
		plot: func(s trace.Source, _ string) (viz.Plot, error) {
			return core.PhysicalHeatmap(s, "Physical Trace (post-aggregation buffers)"), nil
		},
		json: func(s trace.Source, _ string) (any, error) {
			return heatmapJSON("Physical Trace (post-aggregation buffers)", "src PE", "dst PE", s.PhysicalMatrix()), nil
		},
	},
	"node-heatmap": {
		check: func(s trace.Source) error {
			if err := needPhysical(s); err != nil {
				return err
			}
			if npes, perNode := s.Shape(); npes <= perNode {
				return noData("run fits on one node; no node-level hotspots to plot")
			}
			return nil
		},
		plot: func(s trace.Source, _ string) (viz.Plot, error) {
			return core.NodeHeatmap(s, "Node-level network hotspots"), nil
		},
		json: func(s trace.Source, _ string) (any, error) {
			_, perNode := s.Shape()
			m := s.PhysicalMatrix().AggregateNodes(perNode)
			return heatmapJSON("Node-level network hotspots", "src node", "dst node", m), nil
		},
	},
	"logical-violin": {
		check: needLogical,
		plot: func(s trace.Source, _ string) (viz.Plot, error) {
			return core.LogicalViolin(s, "Logical sends/recvs per PE (quartiles)"), nil
		},
		json: func(s trace.Source, _ string) (any, error) {
			return violinJSON(core.LogicalViolin(s, "Logical sends/recvs per PE (quartiles)")), nil
		},
	},
	"physical-violin": {
		check: needPhysical,
		plot: func(s trace.Source, _ string) (viz.Plot, error) {
			return core.PhysicalViolin(s, "Physical buffers per PE (quartiles)"), nil
		},
		json: func(s trace.Source, _ string) (any, error) {
			return violinJSON(core.PhysicalViolin(s, "Physical buffers per PE (quartiles)")), nil
		},
	},
	"papi-bar": {
		check:     needPAPI,
		usesParam: true,
		plot: func(s trace.Source, param string) (viz.Plot, error) {
			ev, err := papiEvent(s, param)
			if err != nil {
				return nil, err
			}
			return core.PAPIBar(s, ev, fmt.Sprintf("%s per PE (user regions)", ev)), nil
		},
		json: func(s trace.Source, param string) (any, error) {
			ev, err := papiEvent(s, param)
			if err != nil {
				return nil, err
			}
			return barPayload{
				Title:  fmt.Sprintf("%s per PE (user regions)", ev),
				YLabel: ev.String(),
				Labels: peLabels(numPEs(s)),
				Values: s.PAPITotalsPerPE(ev),
			}, nil
		},
	},
	"papi-grouped": {
		check: needPAPI,
		plot: func(s trace.Source, _ string) (viz.Plot, error) {
			return core.PAPIGroupedBar(s, "All PAPI counters per PE (one run)"), nil
		},
		json: func(s trace.Source, _ string) (any, error) {
			p := stackedPayload{
				Title:  "All PAPI counters per PE (one run)",
				YLabel: "counter totals",
				Labels: peLabels(numPEs(s)),
			}
			for _, ev := range s.TraceConfig().PAPIEvents {
				p.Series = append(p.Series, seriesPayload{Name: ev.String(), Values: s.PAPITotalsPerPE(ev)})
			}
			return p, nil
		},
	},
	"overall-absolute": {
		check: needOverall,
		plot: func(s trace.Source, _ string) (viz.Plot, error) {
			return core.OverallStacked(s, false, "Overall breakdown (absolute cycles)"), nil
		},
		json: func(s trace.Source, _ string) (any, error) {
			return overallPayload(s, false), nil
		},
	},
	"overall-relative": {
		check: needOverall,
		plot: func(s trace.Source, _ string) (viz.Plot, error) {
			return core.OverallStacked(s, true, "Overall breakdown (relative)"), nil
		},
		json: func(s trace.Source, _ string) (any, error) {
			return overallPayload(s, true), nil
		},
	},
}

// artifactNames lists the catalog, for error messages and the index page.
func artifactNames() []string {
	names := make([]string, 0, len(artifacts))
	for name := range artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// papiEvent resolves the ?event= parameter (default: the run's first
// configured event).
func papiEvent(s trace.Source, param string) (papi.Event, error) {
	events := s.TraceConfig().PAPIEvents
	if param == "" {
		return events[0], nil
	}
	ev, err := papi.EventByName(param)
	if err != nil {
		return 0, statusError{code: 400, msg: err.Error()}
	}
	for _, have := range events {
		if have == ev {
			return ev, nil
		}
	}
	names := make([]string, len(events))
	for i, have := range events {
		names[i] = have.String()
	}
	return 0, statusError{code: 404, msg: fmt.Sprintf("run did not record %s (recorded: %s)",
		ev, strings.Join(names, ", "))}
}

// JSON payload shapes. They mirror what the SVG plots draw, so a caller
// scripting against the daemon sees the same numbers the figures show.

type heatmapPayload struct {
	Title      string    `json:"title"`
	RowLabel   string    `json:"row_label"`
	ColLabel   string    `json:"col_label"`
	Cells      [][]int64 `json:"cells"`
	SendTotals []int64   `json:"send_totals"`
	RecvTotals []int64   `json:"recv_totals"`
}

func heatmapJSON(title, rowLabel, colLabel string, m trace.Matrix) heatmapPayload {
	return heatmapPayload{
		Title:      title,
		RowLabel:   rowLabel,
		ColLabel:   colLabel,
		Cells:      m,
		SendTotals: m.SendTotals(),
		RecvTotals: m.RecvTotals(),
	}
}

type violinGroupPayload struct {
	Label     string          `json:"label"`
	Quartiles stats.Quartiles `json:"quartiles"`
	Values    []float64       `json:"values"`
}

type violinPayload struct {
	Title  string               `json:"title"`
	YLabel string               `json:"y_label"`
	Groups []violinGroupPayload `json:"groups"`
}

func violinJSON(v *viz.Violin) violinPayload {
	p := violinPayload{Title: v.Title, YLabel: v.YLabel}
	for _, g := range v.Groups {
		p.Groups = append(p.Groups, violinGroupPayload{
			Label:     g.Label,
			Quartiles: stats.Summarize(g.Values),
			Values:    g.Values,
		})
	}
	return p
}

type barPayload struct {
	Title  string   `json:"title"`
	YLabel string   `json:"y_label"`
	Labels []string `json:"labels"`
	Values []int64  `json:"values"`
}

type seriesPayload struct {
	Name   string  `json:"name"`
	Values []int64 `json:"values"`
}

type stackedPayload struct {
	Title    string          `json:"title"`
	YLabel   string          `json:"y_label"`
	Labels   []string        `json:"labels"`
	Relative bool            `json:"relative"`
	Series   []seriesPayload `json:"series"`
}

func overallPayload(s trace.Source, relative bool) stackedPayload {
	sb := core.OverallStacked(s, relative, "Overall breakdown")
	if relative {
		sb.Title = "Overall breakdown (relative)"
	} else {
		sb.Title = "Overall breakdown (absolute cycles)"
	}
	p := stackedPayload{
		Title:    sb.Title,
		YLabel:   sb.YLabel,
		Labels:   sb.Labels,
		Relative: relative,
	}
	for _, ser := range sb.Series {
		p.Series = append(p.Series, seriesPayload{Name: ser.Name, Values: ser.Values})
	}
	return p
}

func numPEs(s trace.Source) int {
	n, _ := s.Shape()
	return n
}

func peLabels(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprint(i)
	}
	return labels
}
