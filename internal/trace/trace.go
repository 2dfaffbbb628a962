// Package trace implements ActorProf's trace collection: the logical
// (pre-aggregation) message trace, the PAPI region trace, the overall
// T_MAIN/T_COMM/T_PROC breakdown, and the physical (post-aggregation)
// Conveyors trace, together with the exact on-disk formats the paper
// specifies and readers/aggregators for the visualization layer.
//
// The paper enables each feature with a compile-time macro; Config
// mirrors those as booleans:
//
//	-DENABLE_TRACE            -> Config.Logical  (+ Config.PAPIEvents for HWPC)
//	-DENABLE_TCOMM_PROFILING  -> Config.Overall
//	-DENABLE_TRACE_PHYSICAL   -> Config.Physical
//
// Runs write one native format, the binary columnar APBF (binary.go):
// PEi_send.bin, PEi_PAPI.bin, overall.bin, physical.bin, segments.bin.
// The paper's text formats (Section III) are kept byte for byte as an
// interchange format - written under FormatCSV, which only the
// "actorprof export -format paper" conversion selects, and read
// wherever they appear:
//
//	PEi_send.csv : srcNode,srcPE,dstNode,dstPE,msgSize            (per logical send)
//	PEi_PAPI.csv : srcNode,srcPE,dstNode,dstPE,pktSize,MAILBOXID,NUM_SENDS,<counters...>
//	overall.txt  : Absolute [PEi] TCOMM_PROFILING (T_MAIN, T_COMM, T_PROC)
//	               Relative [PEi] TCOMM_PROFILING (m, c, p)
//	physical.txt : sendType,bufBytes,srcPE,dstPE
package trace

import (
	"fmt"

	"actorprof/internal/conveyor"
	"actorprof/internal/papi"
)

// Config selects which traces a run collects.
type Config struct {
	// Logical enables the pre-aggregation message trace
	// (-DENABLE_TRACE): one record per application-level send.
	Logical bool
	// Physical enables the post-aggregation Conveyors trace
	// (-DENABLE_TRACE_PHYSICAL): one record per buffer transfer event.
	Physical bool
	// Overall enables the T_MAIN/T_COMM/T_PROC cycle breakdown
	// (-DENABLE_TCOMM_PROFILING).
	Overall bool
	// PAPIEvents, when non-empty, enables HWPC region profiling with
	// these events (at most papi.MaxConcurrentEvents). Requires Logical
	// semantics: records are emitted alongside sends.
	PAPIEvents []papi.Event
	// PAPIRecordEvery batches PAPI records: a record is flushed every N
	// sends to the same (destination, mailbox). 1 (the default) emits
	// one record per send, as the paper's per-send-operation format
	// describes; larger values bound trace size for huge runs (the
	// paper's Section VI trace-size concern).
	PAPIRecordEvery int
	// LogicalSample keeps only every Nth logical record (1 = keep all).
	// This is the trace-size-management extension the paper lists as
	// future work; totals-based analyses scale the counts back up.
	LogicalSample int
	// Format selects the on-disk representation WriteFiles produces:
	// the compact binary columnar APBF format (the zero value, and the
	// only format runs and the streaming collector write), or the
	// paper's CSV/text formats, which exist for interchange with the
	// C++ ActorProf (actorprof export -format paper). Readers
	// auto-detect the format per file, so this only affects writers.
	Format Format
	// Aggregate folds records into a Summary at collection time instead
	// of materializing them: each PE adds its sends to its own rows of
	// the collector's Summary, so the collector keeps O(PEs^2) state
	// rather than O(records) slices. Set.Summary and the plot
	// accessors work unchanged; WriteFiles and per-record exports need
	// raw records and refuse aggregated sets (combine with a StreamDir
	// to keep the records on disk).
	Aggregate bool
}

// Format selects the on-disk trace representation.
type Format uint8

const (
	// FormatBinary writes the compact binary columnar files
	// (PEi_send.bin, PEi_PAPI.bin, overall.bin, physical.bin,
	// segments.bin).
	FormatBinary Format = iota
	// FormatCSV writes the paper's text formats (PEi_send.csv,
	// PEi_PAPI.csv, overall.txt, physical.txt, segments.txt).
	FormatCSV
)

// String names the format: "binary" or "csv".
func (f Format) String() string {
	switch f {
	case FormatBinary:
		return "binary"
	case FormatCSV:
		return "csv"
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

func (c Config) withDefaults() Config {
	if c.PAPIRecordEvery <= 0 {
		c.PAPIRecordEvery = 1
	}
	if c.LogicalSample <= 0 {
		c.LogicalSample = 1
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.PAPIEvents) > papi.MaxConcurrentEvents {
		return fmt.Errorf("trace: %d PAPI events configured; PAPI allows at most %d",
			len(c.PAPIEvents), papi.MaxConcurrentEvents)
	}
	if c.Format > FormatCSV {
		return fmt.Errorf("trace: unknown trace format %d", c.Format)
	}
	return nil
}

// Any reports whether any trace feature is enabled.
func (c Config) Any() bool {
	return c.Logical || c.Physical || c.Overall || len(c.PAPIEvents) > 0
}

// LogicalRecord is one pre-aggregation send: the "user application-fed"
// source and destination, with the node mapping (paper Section III-A).
type LogicalRecord struct {
	SrcNode, SrcPE, DstNode, DstPE int
	MsgSize                        int // payload bytes
}

// PAPIRecord is one HWPC record covering NumSends send operations to one
// destination/mailbox, with the counter deltas attributed to user-region
// code since the previous record on this PE (paper Section III-A).
type PAPIRecord struct {
	SrcNode, SrcPE, DstNode, DstPE int
	PktSize                        int
	MailboxID                      int
	NumSends                       int
	Counters                       []int64 // parallel to Config.PAPIEvents
}

// PhysicalRecord is one post-aggregation Conveyors transfer event
// (paper Section III-C).
type PhysicalRecord struct {
	Kind     conveyor.SendKind
	BufBytes int
	SrcPE    int
	DstPE    int
	// Cycles is the initiating PE's clock at the event. It is NOT
	// serialized into physical.txt, whose four-field format matches the
	// paper - and whose timestamps the paper argues are unreliable
	// under Conveyors' lazy-send policy - but the binary physical.bin
	// carries it as a fifth column, so the Trace Event export and the
	// windowed time-index queries survive a round trip through disk.
	Cycles int64
}

// SegmentRecord aggregates one named user segment on one PE: the paper's
// segment-level HWPC profiling ("Segments refer to the culmination of
// functions that do not involve any asynchronous communication"; users
// place HClib-Actor tracing functions around them). Counters follow
// Config.PAPIEvents; Cycles is the summed clock time inside the segment.
type SegmentRecord struct {
	PE       int
	Name     string
	Count    int64 // number of executions
	Cycles   int64
	Counters []int64
}

// OverallRecord is one PE's cycle breakdown (paper Section III-B).
// TComm is derived: TTotal - TMain - TProc.
type OverallRecord struct {
	PE                  int
	TMain, TProc, TComm int64
	TTotal              int64
}

// RelMain returns T_MAIN/T_TOTAL (0 when TTotal is 0).
func (r OverallRecord) RelMain() float64 { return rel(r.TMain, r.TTotal) }

// RelProc returns T_PROC/T_TOTAL.
func (r OverallRecord) RelProc() float64 { return rel(r.TProc, r.TTotal) }

// RelComm returns T_COMM/T_TOTAL.
func (r OverallRecord) RelComm() float64 { return rel(r.TComm, r.TTotal) }

func rel(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// Set is the assembled output of one traced run: the records, plus the
// per-PE breakdowns and segments. The aggregate view the visualizations
// consume is its Summary.
type Set struct {
	NumPEs     int
	PEsPerNode int
	Config     Config

	// Logical[pe] holds PE pe's logical records (PEi_send.csv).
	Logical [][]LogicalRecord
	// LogicalSendCount[pe] is the exact number of logical sends by pe,
	// independent of sampling.
	LogicalSendCount []int64
	// PAPI[pe] holds PE pe's HWPC records (PEi_PAPI.csv).
	PAPI [][]PAPIRecord
	// Physical[pe] holds the physical events *initiated by* PE pe; the
	// on-disk physical file concatenates them in PE order.
	Physical [][]PhysicalRecord
	// Overall[pe] is PE pe's breakdown (overall.txt).
	Overall []OverallRecord
	// Segments[pe] holds PE pe's named user segments (segments.txt),
	// sorted by name.
	Segments [][]SegmentRecord

	// sum is the Summary a folding collector (Config.Aggregate, or
	// streaming) built at collection time; Summary returns it instead of
	// folding the records above, which such a collector leaves empty.
	// Nil on sets read from disk or collected with buffered records.
	sum *Summary
}

// NewSet allocates an empty set for npes PEs.
func NewSet(cfg Config, npes, perNode int) *Set {
	cfg = cfg.withDefaults()
	return &Set{
		NumPEs:           npes,
		PEsPerNode:       perNode,
		Config:           cfg,
		Logical:          make([][]LogicalRecord, npes),
		LogicalSendCount: make([]int64, npes),
		PAPI:             make([][]PAPIRecord, npes),
		Physical:         make([][]PhysicalRecord, npes),
		Overall:          make([]OverallRecord, 0, npes),
		Segments:         make([][]SegmentRecord, npes),
	}
}
