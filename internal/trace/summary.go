package trace

import (
	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
	"actorprof/internal/stats"
)

// Source is what the visualization layer actually needs from a trace:
// the aggregates behind the paper's plots, not the records. *Summary
// (O(PEs^2) memory regardless of trace size) implements it, and so does
// *Set by forwarding to its Summary. A buffered Set folds its records
// on every such call, so a caller drawing several plots from one Set
// passes s.Summary() once instead; every plot constructor accepts
// either.
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

// Shape returns the PE count and PEs-per-node layout.
func (s *Set) Shape() (int, int) { return s.NumPEs, s.PEsPerNode }

// TraceConfig returns the run's trace configuration.
func (s *Set) TraceConfig() Config { return s.Config }

// OverallRecords returns the per-PE cycle breakdowns, sorted by PE.
func (s *Set) OverallRecords() []OverallRecord { return normalizeOverall(s.Overall) }

// LogicalMatrix returns the Summary's pre-aggregation send matrix.
func (s *Set) LogicalMatrix() Matrix { return s.Summary().LogicalMatrix() }

// PhysicalMatrix returns the Summary's data-movement buffer matrix.
func (s *Set) PhysicalMatrix() Matrix { return s.Summary().PhysicalMatrix() }

// PhysicalMatrixOf returns the Summary's matrix for one send kind, used
// by the per-mechanism heatmaps (Figures 8-9 separate local_send from
// nonblock_send).
func (s *Set) PhysicalMatrixOf(kind conveyor.SendKind) Matrix {
	return s.Summary().PhysicalMatrixOf(kind)
}

// PhysicalKindCounts returns the number of physical events per send kind.
func (s *Set) PhysicalKindCounts() map[conveyor.SendKind]int64 {
	return s.Summary().PhysicalKindCounts()
}

// PAPITotalsPerPE sums one event's counter across every PAPI record of
// each PE: the data behind the paper's Figure 10/11 bar graphs ("total
// number of instructions per PE").
func (s *Set) PAPITotalsPerPE(ev papi.Event) []int64 { return s.Summary().PAPITotalsPerPE(ev) }

// Summary is the one aggregate view of a trace: everything the
// heatmap/violin/bar/overall plots consume, folded record by record -
// by a folding collector as the run emits them, or by summarySink as
// ReadSummary scans files or Set.Summary walks a buffered Set. Where a
// Set costs O(records) memory, a Summary costs O(PEs^2) - the
// difference between gigabytes and kilobytes at the paper's Section VI
// trace sizes.
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
		out.add(m.Physical[kind])
	}
	return out
}

// PhysicalMatrixOf returns the matrix for a single send kind.
func (m *Summary) PhysicalMatrixOf(kind conveyor.SendKind) Matrix {
	out := NewMatrix(m.NumPEs)
	out.add(m.Physical[kind])
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

// Summary returns the Set's aggregate view, with the Set's Overall and
// Segments attached. A Set whose collector folded at collection time
// returns that collector's Summary, sharing its matrices (treat them as
// read-only). Any other Set folds its records through summarySink - the
// fold ReadSummary applies to files - one pass per record kind, on
// every call.
func (s *Set) Summary() *Summary {
	var m *Summary
	if s.sum != nil {
		c := *s.sum
		m = &c
	} else {
		m = s.fold()
	}
	m.Overall = normalizeOverall(s.Overall)
	m.Segments = s.Segments
	return m
}

// fold runs the Set's records through a single-partial summarySink.
func (s *Set) fold() *Summary {
	cfg := s.Config
	k := newSummarySink(1, s.NumPEs, cfg)
	if cfg.Logical {
		for pe, recs := range s.Logical {
			yield := k.logical(0, pe, 0)
			for _, r := range recs {
				yield(r)
			}
		}
	}
	if len(cfg.PAPIEvents) > 0 {
		for pe, recs := range s.PAPI {
			yield := k.papi(0, pe, 0)
			for _, r := range recs {
				yield(r)
			}
		}
	}
	if cfg.Physical {
		yield := k.physical(0, -1)
		for _, recs := range s.Physical {
			for _, r := range recs {
				yield(r)
			}
		}
	}
	return k.merge(&Summary{NumPEs: s.NumPEs, PEsPerNode: s.PEsPerNode, Config: cfg})
}

// summaryPartial is one worker's accumulation state in a summarySink.
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

// summarySink is the one fold from stored records to a Summary: records
// fold into one partial per worker, and merge combines the partials.
type summarySink []*summaryPartial

// newSummarySink makes one empty partial per worker for an npes-PE
// trace under cfg.
func newSummarySink(workers, npes int, cfg Config) summarySink {
	k := make(summarySink, workers)
	for i := range k {
		k[i] = &summaryPartial{npes: npes, nEvents: len(cfg.PAPIEvents), scale: int64(max(cfg.LogicalSample, 1))}
	}
	return k
}

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
		p.papi = newPAPITotals(p.nEvents, p.npes)
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

// merge folds every partial into m by exact integer addition, in any
// order, adopting a partial's matrix where m has none yet. Afterwards
// each feature m.Config enables has its aggregate, all zero when no
// record arrived.
func (k summarySink) merge(m *Summary) *Summary {
	for _, p := range k {
		m.MsgBytes.Merge(p.msg)
		if p.logical != nil {
			if m.Logical == nil {
				m.Logical = p.logical
			} else {
				m.Logical.add(p.logical)
			}
		}
		for kind, mat := range p.phys {
			if m.Physical == nil {
				m.Physical = map[conveyor.SendKind]Matrix{}
			}
			if dst := m.Physical[kind]; dst != nil {
				dst.add(mat)
			} else {
				m.Physical[kind] = mat
			}
		}
		if p.papi != nil {
			if m.PAPITotals == nil {
				m.PAPITotals = p.papi
			} else {
				Matrix(m.PAPITotals).add(p.papi)
			}
		}
	}
	if m.Config.Logical && m.Logical == nil {
		m.Logical = NewMatrix(m.NumPEs) // logical files existed but held no records
	}
	if m.Config.Physical && m.Physical == nil {
		m.Physical = map[conveyor.SendKind]Matrix{}
	}
	if n := len(m.Config.PAPIEvents); n > 0 && m.PAPITotals == nil {
		m.PAPITotals = newPAPITotals(n, m.NumPEs)
	}
	return m
}

// newPAPITotals allocates zeroed per-event, per-PE counter totals.
func newPAPITotals(nEvents, npes int) [][]int64 {
	out := make([][]int64, nEvents)
	for i := range out {
		out[i] = make([]int64, npes)
	}
	return out
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
	k := newSummarySink(d.workers, d.numPEs, d.cfg)
	if err := d.run(k); err != nil {
		return nil, 0, err
	}
	m := &Summary{
		NumPEs:     d.numPEs,
		PEsPerNode: d.perNode,
		Config:     d.cfg,
		Segments:   d.segments,
	}
	if d.cfg.Overall {
		m.Overall = d.overall
	}
	return k.merge(m), d.skipped, nil
}
