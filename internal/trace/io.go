package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// File naming, matching the paper's formats.
func logicalFile(pe int) string { return fmt.Sprintf("PE%d_send.csv", pe) }
func papiFile(pe int) string    { return fmt.Sprintf("PE%d_PAPI.csv", pe) }

const (
	overallFile  = "overall.txt"
	physicalFile = "physical.txt"
	segmentsFile = "segments.txt"
	metaFile     = "actorprof_meta.txt"
)

// WriteFiles writes every enabled trace to dir in the format selected
// by Config.Format: the binary columnar APBF files (per-PE PEi_send.bin
// and PEi_PAPI.bin, shared overall.bin/physical.bin/segments.bin) by
// default, or the paper's text formats (PEi_send.csv, PEi_PAPI.csv,
// overall.txt, physical.txt, segments.txt) under FormatCSV.
// actorprof_meta.txt (run parameters: number of PEs, PEs per node, PAPI
// event names) is always text; the readers need it first. Files are
// written in parallel.
func (s *Set) WriteFiles(dir string) error {
	if s.Config.Aggregate {
		return fmt.Errorf("trace: WriteFiles needs raw records, but the set was collected with Config.Aggregate (only matrices were kept)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: creating output dir: %w", err)
	}
	if err := s.writeMeta(dir); err != nil {
		return err
	}
	writeLogical, writePAPI := s.writeLogicalBin, s.writePAPIBin
	writeOverall, writePhysical, writeSegments := s.writeOverallBin, s.writePhysicalBin, s.writeSegmentsBin
	if s.Config.Format == FormatCSV {
		writeLogical, writePAPI = s.writeLogical, s.writePAPI
		writeOverall, writePhysical, writeSegments = s.writeOverall, s.writePhysical, s.writeSegments
	}
	var jobs []func() error
	if s.Config.Logical {
		for pe := 0; pe < s.NumPEs; pe++ {
			pe := pe
			jobs = append(jobs, func() error { return writeLogical(dir, pe) })
		}
	}
	if len(s.Config.PAPIEvents) > 0 {
		for pe := 0; pe < s.NumPEs; pe++ {
			pe := pe
			jobs = append(jobs, func() error { return writePAPI(dir, pe) })
		}
	}
	if s.Config.Overall {
		jobs = append(jobs, func() error { return writeOverall(dir) })
	}
	if s.Config.Physical {
		jobs = append(jobs, func() error { return writePhysical(dir) })
	}
	if s.hasSegments() {
		jobs = append(jobs, func() error { return writeSegments(dir) })
	}
	errs := make([]error, len(jobs))
	runTasks(defaultWorkers(), len(jobs), func(i, _ int) { errs[i] = jobs[i]() })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *Set) hasSegments() bool {
	for _, recs := range s.Segments {
		if len(recs) > 0 {
			return true
		}
	}
	return false
}

func (s *Set) writeSegments(dir string) error {
	names := make([]string, len(s.Config.PAPIEvents))
	for i, ev := range s.Config.PAPIEvents {
		names[i] = ev.String()
	}
	return writeLines(filepath.Join(dir, segmentsFile), func(w *bufio.Writer) error {
		var buf []byte
		for pe := 0; pe < s.NumPEs; pe++ {
			for _, r := range s.Segments[pe] {
				buf = appendSegment(buf[:0], r, names)
				if _, err := w.Write(buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func (s *Set) writeSegmentsBin(dir string) error {
	nev := len(s.Config.PAPIEvents)
	return writeBinFile(filepath.Join(dir, segmentsBinFile), binKindSegments, 3+nev, func(b *binWriter) {
		row := make([]int64, 3+nev)
		for pe := 0; pe < s.NumPEs; pe++ {
			for _, r := range s.Segments[pe] {
				row[0], row[1], row[2] = int64(r.PE), r.Count, r.Cycles
				for i := 0; i < nev; i++ {
					if i < len(r.Counters) {
						row[3+i] = r.Counters[i]
					} else {
						row[3+i] = 0
					}
				}
				b.pushStr(r.Name, row...)
			}
		}
	})
}

func parseSegmentLine(line string, nEvents int) (SegmentRecord, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[1] != "SEGMENT" {
		return SegmentRecord{}, fmt.Errorf("trace: bad segments line %q", line)
	}
	var pe int
	if _, err := fmt.Sscanf(fields[0], "[PE%d]", &pe); err != nil {
		return SegmentRecord{}, fmt.Errorf("trace: bad segments line %q: %w", line, err)
	}
	rec := SegmentRecord{PE: pe, Name: fields[2], Counters: make([]int64, 0, nEvents)}
	for _, kv := range fields[3:] {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return SegmentRecord{}, fmt.Errorf("trace: bad segments field %q", kv)
		}
		v, err := strconv.ParseInt(kv[eq+1:], 10, 64)
		if err != nil {
			return SegmentRecord{}, fmt.Errorf("trace: bad segments field %q: %w", kv, err)
		}
		switch kv[:eq] {
		case "count":
			rec.Count = v
		case "cycles":
			rec.Cycles = v
		default:
			rec.Counters = append(rec.Counters, v)
		}
	}
	return rec, nil
}

func scanSegmentsCSV(r io.Reader, nEvents, npes int, tolerant bool, yield func(SegmentRecord)) (int, error) {
	skipped := 0
	sc := newLineScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		rec, err := parseSegmentLine(line, nEvents)
		if err == nil {
			err = checkSegmentPE(rec.PE, npes)
		}
		if err != nil {
			if tolerant {
				skipped++
				continue
			}
			return 0, err
		}
		yield(rec)
	}
	return skipped, scanErr(sc.Err(), tolerant, &skipped)
}

func writeLines(path string, emit func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err := emit(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: flushing %s: %w", path, err)
	}
	return f.Close()
}

func (s *Set) writeMeta(dir string) error {
	return writeLines(filepath.Join(dir, metaFile), func(w *bufio.Writer) error {
		fmt.Fprintf(w, "num_PEs %d\n", s.NumPEs)
		fmt.Fprintf(w, "PEs_per_node %d\n", s.PEsPerNode)
		if len(s.Config.PAPIEvents) > 0 {
			names := make([]string, len(s.Config.PAPIEvents))
			for i, ev := range s.Config.PAPIEvents {
				names[i] = ev.String()
			}
			fmt.Fprintf(w, "papi_events %s\n", strings.Join(names, ","))
		}
		fmt.Fprintf(w, "logical_sample %d\n", s.Config.LogicalSample)
		return nil
	})
}

func (s *Set) writeLogical(dir string, pe int) error {
	return writeLines(filepath.Join(dir, logicalFile(pe)), func(w *bufio.Writer) error {
		var buf []byte
		for _, r := range s.Logical[pe] {
			buf = appendLogical(buf[:0], r)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s *Set) writeLogicalBin(dir string, pe int) error {
	return writeBinFile(filepath.Join(dir, logicalBinFile(pe)), binKindLogical, 5, func(b *binWriter) {
		for _, r := range s.Logical[pe] {
			b.push(int64(r.SrcNode), int64(r.SrcPE), int64(r.DstNode), int64(r.DstPE), int64(r.MsgSize))
		}
	})
}

func (s *Set) writePAPI(dir string, pe int) error {
	return writeLines(filepath.Join(dir, papiFile(pe)), func(w *bufio.Writer) error {
		var buf []byte
		for _, r := range s.PAPI[pe] {
			buf = appendPAPI(buf[:0], r)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s *Set) writePAPIBin(dir string, pe int) error {
	nev := len(s.Config.PAPIEvents)
	return writeBinFile(filepath.Join(dir, papiBinFile(pe)), binKindPAPI, 7+nev, func(b *binWriter) {
		row := make([]int64, 7+nev)
		for _, r := range s.PAPI[pe] {
			b.push(papiRow(row, r)...)
		}
	})
}

func (s *Set) writeOverall(dir string) error {
	recs := append([]OverallRecord(nil), s.Overall...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].PE < recs[j].PE })
	return writeLines(filepath.Join(dir, overallFile), func(w *bufio.Writer) error {
		var buf []byte
		for _, r := range recs {
			buf = appendOverall(buf[:0], r)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s *Set) writeOverallBin(dir string) error {
	recs := append([]OverallRecord(nil), s.Overall...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].PE < recs[j].PE })
	return writeBinFile(filepath.Join(dir, overallBinFile), binKindOverall, 4, func(b *binWriter) {
		for _, r := range recs {
			b.push(int64(r.PE), r.TMain, r.TComm, r.TProc)
		}
	})
}

func (s *Set) writePhysical(dir string) error {
	return writeLines(filepath.Join(dir, physicalFile), func(w *bufio.Writer) error {
		var buf []byte
		for pe := 0; pe < s.NumPEs; pe++ {
			for _, r := range s.Physical[pe] {
				buf = appendPhysical(buf[:0], r)
				if _, err := w.Write(buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func (s *Set) writePhysicalBin(dir string) error {
	return writeBinFile(filepath.Join(dir, physicalBinFile), binKindPhysical, binPhysicalCols, func(b *binWriter) {
		for pe := 0; pe < s.NumPEs; pe++ {
			for _, r := range s.Physical[pe] {
				b.push(int64(r.Kind), int64(r.BufBytes), int64(r.SrcPE), int64(r.DstPE), r.Cycles)
			}
			// End each PE's records on a block boundary, as the streaming
			// collector's per-PE parts do, so a buffered and a streamed
			// run write the same physical.bin bytes.
			b.flushBlock()
		}
	})
}

// checkSegmentPE is checkPERange for segment records, which name one PE.
func checkSegmentPE(pe, npes int) error {
	if pe < 0 || pe >= npes {
		return fmt.Errorf("trace: segments record with PE %d outside [0, %d)", pe, npes)
	}
	return nil
}

// checkPERange rejects records whose endpoints fall outside the world
// declared by the meta file. The analysis layer indexes matrices with
// these values directly, so admitting them here would turn a corrupt
// trace line into an index-out-of-range panic during visualization.
func checkPERange(kind string, src, dst, npes int) error {
	if src < 0 || src >= npes {
		return fmt.Errorf("trace: %s record with src PE %d outside [0, %d)", kind, src, npes)
	}
	if dst < 0 || dst >= npes {
		return fmt.Errorf("trace: %s record with dst PE %d outside [0, %d)", kind, dst, npes)
	}
	return nil
}

// scanErr classifies a scanner error for tolerant mode: a too-long line
// is content corruption (count it as skipped, stop parsing), anything
// else (a real I/O failure) stays fatal.
func scanErr(err error, tolerant bool, skipped *int) error {
	if err != nil && tolerant && errors.Is(err, bufio.ErrTooLong) {
		*skipped++
		return nil
	}
	return err
}

// scanOverallCSV parses overall.txt lines: only "Absolute" lines carry
// data ("Relative" lines are derived and re-derivable).
func scanOverallCSV(r io.Reader, tolerant bool, yield func(OverallRecord)) (int, error) {
	skipped := 0
	sc := newLineScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Absolute ") {
			continue
		}
		var pe int
		var m, c, p int64
		if _, err := fmt.Sscanf(line, "Absolute [PE%d] TCOMM_PROFILING (%d, %d, %d)",
			&pe, &m, &c, &p); err != nil {
			if tolerant {
				skipped++
				continue
			}
			return 0, fmt.Errorf("trace: bad overall line %q: %w", line, err)
		}
		yield(OverallRecord{PE: pe, TMain: m, TComm: c, TProc: p, TTotal: m + c + p})
	}
	return skipped, scanErr(sc.Err(), tolerant, &skipped)
}

// normalizeOverall dedupes overall records by PE (last record wins, as
// the seed's map-based reader behaved) and sorts by PE.
func normalizeOverall(recs []OverallRecord) []OverallRecord {
	byPE := map[int]OverallRecord{}
	for _, r := range recs {
		byPE[r.PE] = r
	}
	pes := make([]int, 0, len(byPE))
	for pe := range byPE {
		pes = append(pes, pe)
	}
	sort.Ints(pes)
	out := make([]OverallRecord, 0, len(pes))
	for _, pe := range pes {
		out = append(out, byPE[pe])
	}
	return out
}
