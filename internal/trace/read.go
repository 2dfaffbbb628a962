package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"actorprof/internal/papi"
)

// ReadOptions tunes ReadSet and ReadSummary.
type ReadOptions struct {
	// Tolerant reads a directory a streaming collector may still be
	// writing into: malformed records (the torn tail of a file that is
	// still being appended to) count as skipped instead of fatal, and
	// while physical.bin is not assembled yet the per-PE
	// physical.PEi.part.bin files are read in its place. A nonzero
	// skipped count on a *finished* directory indicates corruption that a
	// strict read reports as an error.
	Tolerant bool
	// Workers bounds the parse worker pool. <= 0 means GOMAXPROCS. The
	// result is identical for every worker count: each file is one task
	// owning its own result slot, and slots merge in file order.
	Workers int
}

// ReadSet loads a trace directory written by WriteFiles (or a streaming
// collector) back into a Set, returning the number of records skipped
// under opts.Tolerant. Missing optional files leave the corresponding
// feature disabled, so the visualizer can work with partial trace
// directories. Each file may be APBF or the paper's CSV; the format is
// sniffed from the content. For every worker count it returns an
// identical Set, skipped count and - on malformed input - error.
func ReadSet(dir string, opts ReadOptions) (*Set, int, error) {
	d, err := openScan(dir, opts)
	if err != nil {
		return nil, 0, err
	}
	s := NewSet(d.cfg, d.numPEs, d.perNode)
	k := &setSink{s: s}
	if opts.Tolerant {
		k.parts = make([][]PhysicalRecord, d.numPEs)
	}
	if err := d.run(k); err != nil {
		return nil, 0, err
	}
	s.Config = d.cfg.withDefaults()
	for pe, recs := range s.Logical {
		s.LogicalSendCount[pe] = int64(len(recs)) * int64(d.cfg.LogicalSample)
	}
	for _, recs := range k.parts {
		for _, r := range recs {
			s.Physical[r.SrcPE] = append(s.Physical[r.SrcPE], r)
		}
	}
	if d.cfg.Overall {
		s.Overall = d.overall
	}
	s.Segments = d.segments
	return s, d.skipped, nil
}

// setSink materializes records into a Set. Each per-PE shard owns its
// PE's slice; the single physical.bin task distributes by source PE;
// live physical parts collect into one slot each, which ReadSet merges
// in PE order.
type setSink struct {
	s     *Set
	parts [][]PhysicalRecord
}

func (k *setSink) logical(_, pe, capHint int) func(LogicalRecord) {
	recs := &k.s.Logical[pe]
	*recs = make([]LogicalRecord, 0, capHint)
	return func(r LogicalRecord) { *recs = append(*recs, r) }
}

func (k *setSink) papi(_, pe, capHint int) func(PAPIRecord) {
	recs := &k.s.PAPI[pe]
	*recs = make([]PAPIRecord, 0, capHint)
	return func(r PAPIRecord) { *recs = append(*recs, r) }
}

func (k *setSink) physical(_, part int) func(PhysicalRecord) {
	if part >= 0 {
		recs := &k.parts[part]
		return func(r PhysicalRecord) { *recs = append(*recs, r) }
	}
	phys := k.s.Physical
	return func(r PhysicalRecord) { phys[r.SrcPE] = append(phys[r.SrcPE], r) }
}

// sink is how a reader plugs into the scan core: for each per-PE or
// physical shard it hands out the yield that receives the shard's
// records. The core calls these on the worker goroutine scanning the
// shard; worker lies in [0, dirScan.workers), so a sink may fold into
// per-worker partials (commutative merges only), while anything keyed
// by pe or part belongs to exactly one task. capHint estimates the
// shard's record count for readers that materialize records. part is
// the PE of a live physical.PEi.part.bin, or -1 for physical.bin.
// Overall and segment records are small and collected by the core.
type sink interface {
	logical(worker, pe, capHint int) func(LogicalRecord)
	papi(worker, pe, capHint int) func(PAPIRecord)
	physical(worker, part int) func(PhysicalRecord)
}

// dirScan is the one scan core behind ReadSet and ReadSummary. openScan
// parses the meta file; run scans every shard of the directory on the
// worker pool (DESIGN.md §10), falls back to the live physical parts,
// and merges found flags, skipped counts and errors in shard order.
type dirScan struct {
	dir      string
	tolerant bool
	workers  int
	numPEs   int
	perNode  int
	// cfg holds the meta file's PAPI events and logical sample; run
	// sets Logical, Overall and Physical for the kinds found on disk.
	cfg      Config
	overall  []OverallRecord   // deduped and sorted by PE after run
	segments [][]SegmentRecord // per PE, in file order
	skipped  int
}

// recKind names the record kind a shard holds.
type recKind uint8

const (
	kindLogical recKind = iota
	kindPAPI
	kindOverall
	kindPhysical
	kindSegments
)

// shard is one file of a trace directory. pe is the owning PE of the
// per-PE kinds and of a live physical part (part set).
type shard struct {
	kind recKind
	pe   int
	part bool
}

// names returns the shard's APBF file name and its CSV fallback ("" for
// the live physical parts, which only the streaming collector writes).
func (sh shard) names() (bin, csv string) {
	switch sh.kind {
	case kindLogical:
		return logicalBinFile(sh.pe), logicalFile(sh.pe)
	case kindPAPI:
		return papiBinFile(sh.pe), papiFile(sh.pe)
	case kindOverall:
		return overallBinFile, overallFile
	case kindPhysical:
		if sh.part {
			return physicalPart(sh.pe), ""
		}
		return physicalBinFile, physicalFile
	}
	return segmentsBinFile, segmentsFile
}

// shardResult is one scan task's slot: the task that fills it is its
// only writer, and run reads it only after the worker pool has drained.
type shardResult struct {
	found   bool
	skipped int
	err     error
}

func openScan(dir string, opts ReadOptions) (*dirScan, error) {
	npes, perNode, events, sample, err := readMeta(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	return &dirScan{
		dir:      dir,
		tolerant: opts.Tolerant,
		workers:  min(workers, 2*npes+3),
		numPEs:   npes,
		perNode:  perNode,
		cfg:      Config{PAPIEvents: events, LogicalSample: sample},
		segments: make([][]SegmentRecord, npes),
	}, nil
}

// run scans the directory into k. The first error in the fixed order
// logical (PE 0..n-1), PAPI (PE 0..n-1), overall, physical (or its live
// parts), segments wins, whatever the worker count.
func (d *dirScan) run(k sink) error {
	npes := d.numPEs
	shards := make([]shard, 0, 2*npes+3)
	for pe := 0; pe < npes; pe++ {
		shards = append(shards, shard{kind: kindLogical, pe: pe})
	}
	for pe := 0; pe < npes; pe++ {
		shards = append(shards, shard{kind: kindPAPI, pe: pe})
	}
	shards = append(shards, shard{kind: kindOverall}, shard{kind: kindPhysical}, shard{kind: kindSegments})
	res := d.scanAll(shards, k)
	last := len(res) - 1 // segments
	for i, r := range res[:last] {
		if err := d.merge(shards[i].kind, r); err != nil {
			return err
		}
	}
	if !d.cfg.Physical && d.tolerant {
		// A live streaming dir assembles physical.bin only at Finalize;
		// until then the records sit in per-PE part files.
		parts := make([]shard, npes)
		for pe := range parts {
			parts[pe] = shard{kind: kindPhysical, pe: pe, part: true}
		}
		for _, r := range d.scanAll(parts, k) {
			if err := d.merge(kindPhysical, r); err != nil {
				return err
			}
		}
	}
	if err := d.merge(kindSegments, res[last]); err != nil {
		return err
	}
	if d.cfg.Overall {
		d.overall = normalizeOverall(d.overall)
	}
	return nil
}

func (d *dirScan) scanAll(shards []shard, k sink) []shardResult {
	res := make([]shardResult, len(shards))
	runTasks(d.workers, len(shards), func(i, worker int) {
		res[i] = d.scan(shards[i], worker, k)
	})
	return res
}

// merge folds one shard's slot into the scan's totals.
func (d *dirScan) merge(kind recKind, r shardResult) error {
	if r.err != nil {
		return r.err
	}
	if !r.found {
		return nil
	}
	d.skipped += r.skipped
	switch kind {
	case kindLogical:
		d.cfg.Logical = true
	case kindOverall:
		d.cfg.Overall = true
	case kindPhysical:
		d.cfg.Physical = true
	}
	return nil
}

// scan opens one shard and streams its records into k (or, for overall
// and segments, into the core's own slots). Live parts are always read
// tolerantly: their tails are being appended to while we read.
func (d *dirScan) scan(sh shard, worker int, k sink) (r shardResult) {
	f, bin, size, err := openShard(d.dir, sh)
	if err != nil {
		if !os.IsNotExist(err) {
			r.err = err
		}
		return r
	}
	defer f.Close()
	r.found = true
	tolerant := d.tolerant || sh.part
	npes, nev := d.numPEs, len(d.cfg.PAPIEvents)
	name := f.Name()
	var br *bufio.Reader
	var scratch csvScratch
	if bin {
		br = bufio.NewReaderSize(f, 64<<10)
	}
	switch sh.kind {
	case kindLogical:
		yield := k.logical(worker, sh.pe, capHint(size, bin, 4, 10))
		if bin {
			r.skipped, r.err = scanLogicalBin(br, name, npes, tolerant, yield)
		} else {
			r.skipped, r.err = scanLogicalCSV(f, npes, tolerant, &scratch, yield)
		}
	case kindPAPI:
		yield := k.papi(worker, sh.pe, capHint(size, bin, 8, 20))
		if bin {
			r.skipped, r.err = scanPAPIBin(br, name, npes, tolerant, yield)
		} else {
			r.skipped, r.err = scanPAPICSV(f, nev, npes, tolerant, &scratch, yield)
		}
	case kindOverall:
		yield := func(rec OverallRecord) { d.overall = append(d.overall, rec) }
		if bin {
			r.skipped, r.err = scanOverallBin(br, name, tolerant, yield)
		} else {
			r.skipped, r.err = scanOverallCSV(f, tolerant, yield)
		}
	case kindPhysical:
		part := -1
		if sh.part {
			part = sh.pe
		}
		yield := k.physical(worker, part)
		if bin {
			r.skipped, r.err = scanPhysicalBin(br, name, npes, tolerant, yield)
		} else {
			r.skipped, r.err = scanPhysicalCSV(f, npes, tolerant, &scratch, yield)
		}
	case kindSegments:
		yield := func(rec SegmentRecord) { d.segments[rec.PE] = append(d.segments[rec.PE], rec) }
		if bin {
			r.skipped, r.err = scanSegmentsBin(br, name, npes, tolerant, yield)
		} else {
			r.skipped, r.err = scanSegmentsCSV(f, nev, npes, tolerant, yield)
		}
	}
	return r
}

// openShard opens the shard's APBF file, or else its CSV fallback, and
// sniffs whether the content is APBF by its magic, so detection works
// regardless of file name. It also reports the file's size, and
// returns the file positioned at its start. A shard with neither file
// yields an os.IsNotExist error.
func openShard(dir string, sh shard) (f *os.File, bin bool, size int64, err error) {
	binName, csvName := sh.names()
	f, err = os.Open(filepath.Join(dir, binName))
	if os.IsNotExist(err) && csvName != "" {
		f, err = os.Open(filepath.Join(dir, csvName))
	}
	if err != nil {
		return nil, false, 0, err
	}
	var head [len(binMagic)]byte
	n, err := io.ReadFull(f, head[:])
	if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		size, err = f.Seek(0, io.SeekEnd)
	}
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, false, 0, err
	}
	return f, n == len(head) && string(head[:]) == binMagic, size, nil
}

// maxCapHint bounds the record capacity capHint may suggest. A shard's
// size comes from the file system, not from its content: a sparse or
// hostile file can claim terabytes, and preallocating from that would
// crash the reader. Past the bound, append grows the slice as records
// actually arrive.
const maxCapHint = 1 << 18

// capHint estimates a shard's record count from its size so that
// materializing readers allocate once instead of growing through append
// doublings. Each perRec is a conservative (low) bytes-per-record
// figure for that format; over-estimating slightly is fine.
func capHint(size int64, bin bool, binPerRec, csvPerRec int64) int {
	perRec := csvPerRec
	if bin {
		perRec = binPerRec
	}
	return int(min(size/perRec+1, maxCapHint))
}

func readMeta(path string) (npes, perNode int, events []papi.Event, sample int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, 0, fmt.Errorf("trace: reading meta: %w", err)
	}
	defer f.Close()
	perNode, sample = 1, 1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		switch fields[0] {
		case "num_PEs":
			npes, err = strconv.Atoi(fields[1])
		case "PEs_per_node":
			perNode, err = strconv.Atoi(fields[1])
		case "logical_sample":
			sample, err = strconv.Atoi(fields[1])
		case "papi_events":
			for _, name := range strings.Split(fields[1], ",") {
				ev, e := papi.EventByName(name)
				if e != nil {
					return 0, 0, nil, 0, e
				}
				events = append(events, ev)
			}
		}
		if err != nil {
			return 0, 0, nil, 0, fmt.Errorf("trace: bad meta line %q: %w", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, nil, 0, err
	}
	if npes <= 0 {
		return 0, 0, nil, 0, fmt.Errorf("trace: meta file %s has no num_PEs", path)
	}
	if npes > maxReadPEs {
		return 0, 0, nil, 0, fmt.Errorf("trace: meta file %s claims %d PEs (max %d); refusing to allocate",
			path, npes, maxReadPEs)
	}
	if perNode <= 0 || perNode > npes {
		return 0, 0, nil, 0, fmt.Errorf("trace: meta file %s has PEs_per_node %d for %d PEs", path, perNode, npes)
	}
	if sample <= 0 {
		sample = 1 // pre-normalization configs wrote 0 for "keep all"
	}
	return npes, perNode, events, sample, nil
}

// maxReadPEs caps the PE count a meta file may claim: the per-PE slices
// the readers allocate (and the per-PE files they probe) scale with it,
// so a corrupt meta line must not drive them into huge allocations.
const maxReadPEs = 1 << 20
