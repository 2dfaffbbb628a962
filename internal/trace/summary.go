package trace

import (
	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
	"actorprof/internal/stats"
)

// Source is what the visualization layer actually needs from a trace:
// the aggregates behind the paper's plots, not the records. Both *Set
// (full records in memory) and *Summary (streaming aggregation, O(PEs^2)
// memory regardless of trace size) implement it, so every plot
// constructor accepts either.
type Source interface {
	// Shape returns the PE count and PEs-per-node layout.
	Shape() (numPEs, pesPerNode int)
	// TraceConfig returns the run's trace configuration.
	TraceConfig() Config
	// LogicalMatrix is the pre-aggregation send-count matrix (sampling
	// scaled back to true counts).
	LogicalMatrix() Matrix
	// PhysicalMatrix is the post-aggregation buffer-count matrix
	// (data-movement events only).
	PhysicalMatrix() Matrix
	// PAPITotalsPerPE sums one configured event per PE.
	PAPITotalsPerPE(ev papi.Event) []int64
	// OverallRecords returns the per-PE cycle breakdowns, sorted by PE.
	OverallRecords() []OverallRecord
}

// Set's Source implementation (LogicalMatrix, PhysicalMatrix and
// PAPITotalsPerPE live in analysis.go).

// Shape returns the PE count and PEs-per-node layout.
func (s *Set) Shape() (int, int) { return s.NumPEs, s.PEsPerNode }

// TraceConfig returns the run's trace configuration.
func (s *Set) TraceConfig() Config { return s.Config }

// OverallRecords returns the per-PE cycle breakdowns, sorted by PE.
func (s *Set) OverallRecords() []OverallRecord { return normalizeOverall(s.Overall) }

// Summary is the streaming-aggregation view of a trace: everything the
// heatmap/violin/bar/overall plots consume, folded record by record
// during the scan. Where a Set costs O(records) memory, a Summary costs
// O(PEs^2) - the difference between gigabytes and kilobytes at the
// paper's Section VI trace sizes.
type Summary struct {
	NumPEs     int
	PEsPerNode int
	Config     Config

	// Logical is the pre-aggregation send matrix, sampling already
	// scaled. Nil when the trace has no logical records.
	Logical Matrix
	// Physical holds one buffer-count matrix per send kind that
	// occurred.
	Physical map[conveyor.SendKind]Matrix
	// PAPITotals[ev][pe] sums counter ev over PE pe's records, parallel
	// to Config.PAPIEvents.
	PAPITotals [][]int64
	// Overall is the per-PE cycle breakdown, sorted by PE.
	Overall []OverallRecord
	// Segments[pe] holds PE pe's named user segments.
	Segments [][]SegmentRecord
	// MsgBytes accumulates logical payload-size statistics.
	MsgBytes stats.Stream
}

// Shape returns the PE count and PEs-per-node layout.
func (m *Summary) Shape() (int, int) { return m.NumPEs, m.PEsPerNode }

// TraceConfig returns the run's trace configuration.
func (m *Summary) TraceConfig() Config { return m.Config }

// LogicalMatrix returns the pre-aggregation send matrix (zero matrix
// when no logical trace was found).
func (m *Summary) LogicalMatrix() Matrix {
	if m.Logical == nil {
		return NewMatrix(m.NumPEs)
	}
	return m.Logical
}

// PhysicalMatrix returns the data-movement buffer matrix (local_send +
// nonblock_send; progress events would double-count).
func (m *Summary) PhysicalMatrix() Matrix {
	out := NewMatrix(m.NumPEs)
	for _, kind := range []conveyor.SendKind{conveyor.LocalSend, conveyor.NonblockSend} {
		for i, row := range m.Physical[kind] {
			for j, v := range row {
				out[i][j] += v
			}
		}
	}
	return out
}

// PhysicalMatrixOf returns the matrix for a single send kind.
func (m *Summary) PhysicalMatrixOf(kind conveyor.SendKind) Matrix {
	out := NewMatrix(m.NumPEs)
	for i, row := range m.Physical[kind] {
		copy(out[i], row)
	}
	return out
}

// PhysicalKindCounts returns the number of physical events per kind.
func (m *Summary) PhysicalKindCounts() map[conveyor.SendKind]int64 {
	out := map[conveyor.SendKind]int64{}
	for kind, mat := range m.Physical {
		if t := mat.Total(); t > 0 {
			out[kind] = t
		}
	}
	return out
}

// PAPITotalsPerPE returns one configured event's per-PE totals (zeros
// for an unconfigured event).
func (m *Summary) PAPITotalsPerPE(ev papi.Event) []int64 {
	out := make([]int64, m.NumPEs)
	for i, e := range m.Config.PAPIEvents {
		if e == ev && i < len(m.PAPITotals) {
			copy(out, m.PAPITotals[i])
			break
		}
	}
	return out
}

// OverallRecords returns the per-PE cycle breakdowns, sorted by PE.
func (m *Summary) OverallRecords() []OverallRecord { return m.Overall }

// Summary folds an in-memory Set into its aggregate view.
func (s *Set) Summary() *Summary {
	m := &Summary{
		NumPEs:     s.NumPEs,
		PEsPerNode: s.PEsPerNode,
		Config:     s.Config,
		Segments:   s.Segments,
		Overall:    normalizeOverall(s.Overall),
	}
	if s.Config.Logical {
		m.Logical = s.LogicalMatrix()
		if s.Config.Aggregate {
			m.MsgBytes = s.MsgBytes
		} else {
			for _, recs := range s.Logical {
				for _, r := range recs {
					m.MsgBytes.Observe(int64(r.MsgSize))
				}
			}
		}
	}
	if s.Config.Physical {
		m.Physical = map[conveyor.SendKind]Matrix{}
		for kind, count := range s.PhysicalKindCounts() {
			if count > 0 {
				m.Physical[kind] = s.PhysicalMatrixOf(kind)
			}
		}
	}
	if n := len(s.Config.PAPIEvents); n > 0 {
		m.PAPITotals = make([][]int64, n)
		for i, ev := range s.Config.PAPIEvents {
			m.PAPITotals[i] = s.PAPITotalsPerPE(ev)
		}
	}
	return m
}

// summaryPartial is one worker's accumulation state during ReadSummary.
// Everything in it merges commutatively (exact integer sums), so the
// scheduling-dependent assignment of files to workers cannot change the
// merged result (DESIGN.md §10).
type summaryPartial struct {
	npes, nEvents int
	scale         int64
	logical       Matrix
	phys          map[conveyor.SendKind]Matrix
	papi          [][]int64
	msg           stats.Stream
}

// summarySink folds records into one partial per worker.
type summarySink []*summaryPartial

func (k summarySink) logical(worker, _, _ int) func(LogicalRecord) {
	p := k[worker]
	if p.logical == nil {
		p.logical = NewMatrix(p.npes)
	}
	m, scale := p.logical, p.scale
	return func(r LogicalRecord) {
		m[r.SrcPE][r.DstPE] += scale
		p.msg.Observe(int64(r.MsgSize))
	}
}

func (k summarySink) papi(worker, pe, _ int) func(PAPIRecord) {
	p := k[worker]
	if p.papi == nil {
		p.papi = make([][]int64, p.nEvents)
		for i := range p.papi {
			p.papi[i] = make([]int64, p.npes)
		}
	}
	return func(r PAPIRecord) {
		for ev := 0; ev < p.nEvents && ev < len(r.Counters); ev++ {
			p.papi[ev][pe] += r.Counters[ev]
		}
	}
}

func (k summarySink) physical(worker, _ int) func(PhysicalRecord) {
	p := k[worker]
	if p.phys == nil {
		p.phys = map[conveyor.SendKind]Matrix{}
	}
	return func(r PhysicalRecord) {
		m := p.phys[r.Kind]
		if m == nil {
			m = NewMatrix(p.npes)
			p.phys[r.Kind] = m
		}
		m[r.SrcPE][r.DstPE]++
	}
}

// ReadSummary scans a trace directory into a Summary without ever
// materializing record slices: files parse in parallel on the same scan
// core as ReadSet, and every record folds into per-worker partial
// matrices that merge by exact integer addition. The skipped count and
// error match what ReadSet reports for the same directory and options.
func ReadSummary(dir string, opts ReadOptions) (*Summary, int, error) {
	d, err := openScan(dir, opts)
	if err != nil {
		return nil, 0, err
	}
	npes, nEvents := d.numPEs, len(d.cfg.PAPIEvents)
	partials := make(summarySink, d.workers)
	for i := range partials {
		partials[i] = &summaryPartial{npes: npes, nEvents: nEvents, scale: int64(d.cfg.LogicalSample)}
	}
	if err := d.run(partials); err != nil {
		return nil, 0, err
	}
	m := &Summary{
		NumPEs:     npes,
		PEsPerNode: d.perNode,
		Config:     d.cfg,
		Segments:   d.segments,
	}
	if d.cfg.Overall {
		m.Overall = d.overall
	}

	// Merge the worker partials: exact integer sums, any order.
	for _, p := range partials {
		if p.logical != nil {
			if m.Logical == nil {
				m.Logical = NewMatrix(npes)
			}
			for i, row := range p.logical {
				for j, v := range row {
					m.Logical[i][j] += v
				}
			}
		}
		m.MsgBytes.Merge(p.msg)
		if p.phys != nil {
			if m.Physical == nil {
				m.Physical = map[conveyor.SendKind]Matrix{}
			}
			for kind, mat := range p.phys {
				dst := m.Physical[kind]
				if dst == nil {
					dst = NewMatrix(npes)
					m.Physical[kind] = dst
				}
				for i, row := range mat {
					for j, v := range row {
						dst[i][j] += v
					}
				}
			}
		}
		if p.papi != nil {
			if m.PAPITotals == nil {
				m.PAPITotals = make([][]int64, nEvents)
				for i := range m.PAPITotals {
					m.PAPITotals[i] = make([]int64, npes)
				}
			}
			for ev := range p.papi {
				for pe, v := range p.papi[ev] {
					m.PAPITotals[ev][pe] += v
				}
			}
		}
	}
	if m.Config.Logical && m.Logical == nil {
		m.Logical = NewMatrix(npes) // logical files existed but held no records
	}
	if m.Config.Physical && m.Physical == nil {
		m.Physical = map[conveyor.SendKind]Matrix{}
	}
	if nEvents > 0 && m.PAPITotals == nil {
		m.PAPITotals = make([][]int64, nEvents)
		for i := range m.PAPITotals {
			m.PAPITotals[i] = make([]int64, npes)
		}
	}
	return m, d.skipped, nil
}
