package trace

import (
	"fmt"
	"sort"
	"sync"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
	"actorprof/internal/sim"
	"actorprof/internal/stats"
)

// Collector gathers trace data for one run across all PEs. Create one
// Collector, then obtain a PECollector per PE with ForPE; per-PE methods
// are called from that PE's goroutine only, and Finish assembles the Set.
type Collector struct {
	cfg     Config
	machine sim.Machine

	mu  sync.Mutex
	set *Set
	// physMisc collects, at each PE's Close, the physical events a
	// folding PE could not add to its own rows; Set folds them once
	// every PE is done writing.
	physMisc []PhysicalRecord

	// streamDir, when non-empty, switches the collector into streaming
	// mode: records are written to disk as they are produced (see
	// streaming.go) and fold into the Set's Summary instead of memory.
	streamDir string
	streams   []*peStream
}

// NewCollector creates a collector for the given machine. Under
// Config.Aggregate it folds records into a Summary instead of buffering
// them.
func NewCollector(cfg Config, machine sim.Machine) (*Collector, error) {
	return newCollector(cfg, machine, cfg.Aggregate)
}

func newCollector(cfg Config, machine sim.Machine, fold bool) (*Collector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Collector{
		cfg:     cfg,
		machine: machine,
		set:     NewSet(cfg, machine.NumPEs, machine.PEsPerNode),
	}
	if fold {
		c.set.sum = newFoldSummary(cfg, machine)
	}
	return c, nil
}

// newFoldSummary allocates every aggregate cfg enables up front, so
// that the PEs' per-record folds neither allocate nor lock: each PE
// writes only its own rows.
func newFoldSummary(cfg Config, machine sim.Machine) *Summary {
	n := machine.NumPEs
	m := &Summary{NumPEs: n, PEsPerNode: machine.PEsPerNode, Config: cfg}
	if cfg.Logical {
		m.Logical = NewMatrix(n)
	}
	if cfg.Physical {
		m.Physical = map[conveyor.SendKind]Matrix{}
		for kind := conveyor.LocalSend; kind <= conveyor.NonblockProgress; kind++ {
			m.Physical[kind] = NewMatrix(n)
		}
	}
	if nev := len(cfg.PAPIEvents); nev > 0 {
		m.PAPITotals = newPAPITotals(nev, n)
	}
	return m
}

// Config returns the collector's configuration (with defaults applied).
func (c *Collector) Config() Config { return c.cfg }

// Set returns the assembled trace set. Call only after every PE's
// PECollector has been Closed.
func (c *Collector) Set() *Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.set.sum; m != nil {
		// No PE writes its rows any more, so the events attributed to
		// other PEs can fold in; kinds that never occurred drop out, as
		// they do from a Summary read from disk.
		k := newSummarySink(1, m.NumPEs, m.Config)
		yield := k.physical(0, -1)
		for _, r := range c.physMisc {
			yield(r)
		}
		c.physMisc = nil
		k.merge(m)
		for kind, mat := range m.Physical {
			if mat.Total() == 0 {
				delete(m.Physical, kind)
			}
		}
	}
	return c.set
}

// ForPE creates the per-PE collection handle. engine is the PE's PAPI
// counter bank (may be nil when no PAPI events are configured).
func (c *Collector) ForPE(pe int, engine *papi.Engine) *PECollector {
	pc := &PECollector{
		parent:  c,
		pe:      pe,
		node:    c.machine.NodeOf(pe),
		machine: c.machine,
		engine:  engine,
		sum:     c.set.sum,
	}
	if c.Streaming() {
		s, err := c.openStreams(pe)
		if err != nil {
			panic(fmt.Sprintf("trace: opening stream files for PE %d: %v", pe, err))
		}
		c.mu.Lock()
		c.streams[pe] = s
		c.mu.Unlock()
		pc.stream = s
	}
	if len(c.cfg.PAPIEvents) > 0 {
		if engine == nil {
			panic("trace: PAPI events configured but no engine supplied")
		}
		es, err := papi.NewEventSet(engine, c.cfg.PAPIEvents...)
		if err != nil {
			// Config.Validate bounds the event count; remaining errors
			// are programming mistakes.
			panic(err)
		}
		pc.eventSet = es
		// The PAPI region deliberately spans the PE's whole lifetime:
		// started here, read out and restarted by flushPAPI, stopped for
		// good in Close.
		es.Start() //actorvet:ignore unpairedregion
	}
	return pc
}

// PECollector receives trace events from one PE. Not safe for concurrent
// use; the owning PE goroutine calls it.
type PECollector struct {
	parent  *Collector
	pe      int
	node    int
	machine sim.Machine
	engine  *papi.Engine

	// stream, when non-nil, receives records directly (streaming mode).
	stream *peStream

	// sum, when non-nil, is the collector's Summary: records fold into
	// it instead of the slices below. This PE alone writes its rows -
	// logical row pe, physical row pe of each kind, PAPI entry [ev][pe]
	// - so the fold takes no lock. Payload-size statistics and the rare
	// physical event attributed to another PE (or an unknown send kind)
	// stay here until Close hands them over under the collector mutex.
	sum      *Summary
	msg      stats.Stream
	physMisc []PhysicalRecord

	logical      []LogicalRecord
	logicalCount int64
	papiRecs     []PAPIRecord
	physical     []PhysicalRecord
	overall      OverallRecord
	hasOverall   bool

	// eventSet measures user-region counter deltas between PAPI records.
	eventSet *papi.EventSet
	// pending accumulates sends not yet flushed into a PAPIRecord when
	// PAPIRecordEvery > 1.
	pendingSends   int
	pendingDst     int
	pendingMailbox int
	pendingPkt     int

	// segments aggregates named user segments (SegmentEnter/Exit).
	segments map[string]*SegmentRecord

	closed bool
}

// SegmentToken marks an open segment measurement.
type SegmentToken struct {
	name     string
	cycles0  int64
	counter0 []int64
}

// SegmentEnter begins measuring a named user segment; cycles is the PE's
// current clock. Pair with SegmentExit. Segments may not nest with the
// same token but distinct segments can interleave freely.
func (p *PECollector) SegmentEnter(name string, cycles int64) SegmentToken {
	tok := SegmentToken{name: name, cycles0: cycles}
	if p.engine != nil {
		evs := p.parent.cfg.PAPIEvents
		tok.counter0 = make([]int64, len(evs))
		for i, ev := range evs {
			tok.counter0[i] = p.engine.Read(ev)
		}
	}
	return tok
}

// SegmentExit completes a segment measurement opened by SegmentEnter.
func (p *PECollector) SegmentExit(tok SegmentToken, cycles int64) {
	if p.segments == nil {
		p.segments = make(map[string]*SegmentRecord)
	}
	rec := p.segments[tok.name]
	if rec == nil {
		rec = &SegmentRecord{
			PE: p.pe, Name: tok.name,
			Counters: make([]int64, len(p.parent.cfg.PAPIEvents)),
		}
		p.segments[tok.name] = rec
	}
	rec.Count++
	rec.Cycles += cycles - tok.cycles0
	if p.engine != nil {
		for i, ev := range p.parent.cfg.PAPIEvents {
			rec.Counters[i] += p.engine.Read(ev) - tok.counter0[i]
		}
	}
}

// LogicalSend records one application-level send of msgSize payload bytes
// to PE dst via the given mailbox. It feeds both the logical trace and
// the PAPI trace, as in ActorProf's instrumentation of HClib-Actor.
func (p *PECollector) LogicalSend(mailbox, dst, msgSize int) {
	cfg := p.parent.cfg
	p.logicalCount++
	if cfg.Logical && (p.logicalCount-1)%int64(cfg.LogicalSample) == 0 {
		rec := LogicalRecord{
			SrcNode: p.node,
			SrcPE:   p.pe,
			DstNode: p.machine.NodeOf(dst),
			DstPE:   dst,
			MsgSize: msgSize,
		}
		if p.stream != nil {
			p.streamLogical(rec)
		}
		if p.sum != nil {
			p.sum.Logical[p.pe][dst] += int64(cfg.LogicalSample)
			p.msg.Observe(int64(msgSize))
		} else {
			p.logical = append(p.logical, rec)
		}
	}
	if p.eventSet == nil {
		return
	}
	// Batch sends into a PAPI record. A change of destination or mailbox
	// flushes early so each record's endpoint fields stay meaningful.
	if p.pendingSends > 0 && (p.pendingDst != dst || p.pendingMailbox != mailbox) {
		p.flushPAPI()
	}
	p.pendingDst, p.pendingMailbox, p.pendingPkt = dst, mailbox, msgSize
	p.pendingSends++
	if p.pendingSends >= cfg.PAPIRecordEvery {
		p.flushPAPI()
	}
}

// flushPAPI emits the pending PAPI record with the counter deltas since
// the previous record (PAPI_stop/PAPI_start pair).
func (p *PECollector) flushPAPI() {
	if p.pendingSends == 0 || p.eventSet == nil {
		return
	}
	counters := p.eventSet.Stop()
	p.eventSet.Start()
	rec := PAPIRecord{
		SrcNode:   p.node,
		SrcPE:     p.pe,
		DstNode:   p.machine.NodeOf(p.pendingDst),
		DstPE:     p.pendingDst,
		PktSize:   p.pendingPkt,
		MailboxID: p.pendingMailbox,
		NumSends:  p.pendingSends,
		Counters:  counters,
	}
	p.recordPAPI(rec)
	p.pendingSends = 0
}

// recordPAPI routes a finished PAPI record to the enabled sinks: the
// stream (streaming mode), and the Summary's PAPI totals or else the
// in-memory slice.
func (p *PECollector) recordPAPI(rec PAPIRecord) {
	if p.stream != nil {
		p.streamPAPI(rec)
	}
	if p.sum != nil {
		for ev, v := range rec.Counters {
			p.sum.PAPITotals[ev][p.pe] += v
		}
	} else {
		p.papiRecs = append(p.papiRecs, rec)
	}
}

// PhysicalSend records one Conveyors transfer event; wire it to
// conveyor.Options.OnPhysical.
func (p *PECollector) PhysicalSend(kind conveyor.SendKind, bufBytes, src, dst int) {
	p.PhysicalSendAt(kind, bufBytes, src, dst, 0)
}

// PhysicalSendAt records one Conveyors transfer event with the
// initiating PE's clock value, enabling the Google Trace Event export.
func (p *PECollector) PhysicalSendAt(kind conveyor.SendKind, bufBytes, src, dst int, cycles int64) {
	if !p.parent.cfg.Physical {
		return
	}
	rec := PhysicalRecord{
		Kind: kind, BufBytes: bufBytes, SrcPE: src, DstPE: dst, Cycles: cycles,
	}
	if p.stream != nil {
		p.streamPhysical(rec)
	}
	if p.sum == nil {
		p.physical = append(p.physical, rec)
	} else if m := p.sum.Physical[kind]; m != nil && src == p.pe && dst >= 0 && dst < len(m) {
		m[src][dst]++
	} else {
		p.physMisc = append(p.physMisc, rec)
	}
}

// OverallBreakdown records the PE's cycle breakdown; T_COMM is derived as
// total minus MAIN minus PROC, as the paper specifies.
func (p *PECollector) OverallBreakdown(tMain, tProc, tTotal int64) {
	if !p.parent.cfg.Overall {
		return
	}
	comm := tTotal - tMain - tProc
	if comm < 0 {
		comm = 0
	}
	p.overall = OverallRecord{
		PE: p.pe, TMain: tMain, TProc: tProc, TComm: comm, TTotal: tTotal,
	}
	p.hasOverall = true
}

// Close flushes pending records into the shared Set. Idempotent.
func (p *PECollector) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.flushPAPI()
	if p.eventSet != nil && p.eventSet.Running() {
		// Emit a residual record for user-region work performed after
		// the last send (the drain phase handles most receives on
		// recv-heavy PEs). NumSends 0 and MailboxID -1 mark it; per-PE
		// totals would otherwise under-count and depend on scheduling.
		counters := p.eventSet.Stop()
		residual := false
		for _, c := range counters {
			if c != 0 {
				residual = true
				break
			}
		}
		if residual {
			p.recordPAPI(PAPIRecord{
				SrcNode: p.node, SrcPE: p.pe,
				DstNode: p.node, DstPE: p.pe,
				PktSize: 0, MailboxID: -1, NumSends: 0,
				Counters: counters,
			})
		}
	}
	c := p.parent
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.sum != nil {
		p.sum.MsgBytes.Merge(p.msg)
		c.physMisc = append(c.physMisc, p.physMisc...)
	}
	c.set.Logical[p.pe] = p.logical
	c.set.LogicalSendCount[p.pe] = p.logicalCount
	c.set.PAPI[p.pe] = p.papiRecs
	c.set.Physical[p.pe] = p.physical
	if p.hasOverall {
		c.set.Overall = append(c.set.Overall, p.overall)
	}
	if len(p.segments) > 0 {
		names := make([]string, 0, len(p.segments))
		for name := range p.segments {
			names = append(names, name)
		}
		sort.Strings(names)
		recs := make([]SegmentRecord, 0, len(names))
		for _, name := range names {
			recs = append(recs, *p.segments[name])
		}
		c.set.Segments[p.pe] = recs
	}
}
