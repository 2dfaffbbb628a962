package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"actorprof/internal/conveyor"
)

// The compact binary columnar trace format ("APBF": ActorProf Binary
// Format). CSV is the paper's interchange format, but at Section VI
// trace sizes its decimal-and-comma encoding costs 2-4x the bytes and
// most of the parse time. APBF stores the same five record kinds as
// blocks of column-major zigzag varints:
//
//	header : "APBF" | version (1 byte) | kind (1 byte) | uvarint ncols
//	block  : uvarint nrows (>0)
//	         [kind=segments only] nrows strings (uvarint len | bytes)
//	         ncols columns, each nrows zigzag-varint int64s
//	... blocks repeat until EOF
//
// The header is self-describing (readers sniff the magic, so files are
// auto-detected regardless of extension) and versioned. Column-major
// blocks keep same-column values adjacent, which makes the varints short
// (PE numbers and node IDs cluster) and the decode loop branch-free per
// column. A torn tail - the normal state of a .part file that a
// streaming collector is still appending to - is detected mid-block and
// counted toward the tolerant reader's skipped total, exactly like a
// torn CSV line.
const (
	binMagic   = "APBF"
	binVersion = 1

	binKindLogical  byte = 1
	binKindPAPI     byte = 2
	binKindPhysical byte = 3
	binKindOverall  byte = 4
	binKindSegments byte = 5

	// binBlockRows is the encoder's block size: small enough that live
	// readers see records promptly, large enough to amortize the
	// per-block row count.
	binBlockRows = 1024

	// maxBinRows / maxBinCols / maxBinStr bound what a (possibly
	// hostile) header or block may claim, so a corrupt file cannot drive
	// the reader into huge allocations.
	maxBinRows = 1 << 20
	maxBinCols = 1 << 10
	maxBinStr  = 1 << 16

	// Physical column counts: the base format carried 4 columns
	// (kind, buf_bytes, src, dst); the current writer appends the
	// per-PE virtual-clock cycles as column 4. Readers accept either,
	// so pre-cycles traces keep loading.
	binPhysicalMinCols = 4
	binPhysicalCols    = 5
)

// Binary sibling names of the CSV trace files.
func logicalBinFile(pe int) string { return fmt.Sprintf("PE%d_send.bin", pe) }
func papiBinFile(pe int) string    { return fmt.Sprintf("PE%d_PAPI.bin", pe) }

const (
	overallBinFile  = "overall.bin"
	physicalBinFile = "physical.bin"
	segmentsBinFile = "segments.bin"
)

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// binWriter encodes one APBF file. Errors are sticky and surface from
// finish (matching the bufio.Writer convention of the CSV stream path).
type binWriter struct {
	w     *bufio.Writer
	ncols int
	cols  [][]int64
	strs  []string
	n     int
	// enc is the varint scratch: the header, then each block's row
	// count and strings, then each of its columns, is encoded here and
	// handed to w in one Write instead of one Write per value.
	enc []byte
	err error
}

// newBinWriter writes the header and returns an encoder for kind/ncols.
func newBinWriter(w *bufio.Writer, kind byte, ncols int) *binWriter {
	b := &binWriter{
		w: w, ncols: ncols, cols: make([][]int64, ncols),
		enc: make([]byte, 0, binBlockRows*binary.MaxVarintLen64),
	}
	backing := make([]int64, ncols*binBlockRows) // one array for every column's block
	for i := range b.cols {
		b.cols[i] = backing[i*binBlockRows : i*binBlockRows : (i+1)*binBlockRows]
	}
	enc := append(b.enc, binMagic...)
	enc = append(enc, binVersion, kind)
	b.write(binary.AppendUvarint(enc, uint64(ncols)))
	return b
}

// write hands p to the underlying writer unless an error is pending.
func (b *binWriter) write(p []byte) {
	if b.err == nil {
		_, b.err = b.w.Write(p)
	}
}

// push appends one row. vals must have exactly ncols entries (the
// pad/truncate policy for ragged records is the caller's).
func (b *binWriter) push(vals ...int64) {
	for i := 0; i < b.ncols; i++ {
		b.cols[i] = append(b.cols[i], vals[i])
	}
	b.n++
	if b.n >= binBlockRows {
		b.flushBlock()
	}
}

// pushStr appends one row of a string-bearing kind (segments).
func (b *binWriter) pushStr(s string, vals ...int64) {
	b.strs = append(b.strs, s)
	b.push(vals...)
}

// flushBlock emits the buffered rows as one block.
func (b *binWriter) flushBlock() {
	if b.n == 0 {
		return
	}
	enc := binary.AppendUvarint(b.enc[:0], uint64(b.n))
	for _, s := range b.strs {
		enc = binary.AppendUvarint(enc, uint64(len(s)))
		enc = append(enc, s...)
	}
	b.write(enc)
	for c, col := range b.cols {
		enc = enc[:0]
		for _, v := range col {
			enc = binary.AppendUvarint(enc, zigzag(v))
		}
		b.write(enc)
		b.cols[c] = col[:0]
	}
	b.enc = enc[:0]
	b.strs = b.strs[:0]
	b.n = 0
}

// finish flushes the final partial block and reports any sticky error.
// It does not flush the underlying bufio.Writer.
func (b *binWriter) finish() error {
	b.flushBlock()
	return b.err
}

// writeBinFile creates path and streams rows from emit through a
// binWriter into it.
func writeBinFile(path string, kind byte, ncols int, emit func(b *binWriter)) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	b := newBinWriter(w, kind, ncols)
	emit(b)
	if err := b.finish(); err != nil {
		f.Close()
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: flushing %s: %w", path, err)
	}
	return f.Close()
}

// binReader decodes one APBF file block by block, reusing column
// scratch across blocks.
type binReader struct {
	br    *bufio.Reader
	path  string
	ncols int
	cols  [][]int64
	strs  []string
	// arena hands out counter slices (PAPI/segments) in chunks, like the
	// CSV scratch.
	arena []int64
}

func (d *binReader) counters(n int) []int64 {
	if n == 0 {
		return nil
	}
	if len(d.arena) < n {
		size := arenaChunk
		if n > size {
			size = n
		}
		d.arena = make([]int64, size)
	}
	out := d.arena[:n:n]
	d.arena = d.arena[n:]
	return out
}

// newBinReader validates the header. An empty file is reported as
// (nil, nil): zero records, like an empty CSV file.
func newBinReader(br *bufio.Reader, path string, wantKind byte, minCols int) (*binReader, error) {
	if _, err := br.Peek(1); err == io.EOF {
		return nil, nil
	}
	var hdr [6]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: %s: truncated binary header: %w", path, err)
	}
	if string(hdr[:4]) != binMagic {
		return nil, fmt.Errorf("trace: %s: bad magic %q in binary header", path, hdr[:4])
	}
	if hdr[4] != binVersion {
		return nil, fmt.Errorf("trace: %s: unsupported binary trace version %d (want %d)", path, hdr[4], binVersion)
	}
	if hdr[5] != wantKind {
		return nil, fmt.Errorf("trace: %s: binary record kind %d, want %d", path, hdr[5], wantKind)
	}
	ncols64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: truncated binary header: %w", path, err)
	}
	if ncols64 < uint64(minCols) || ncols64 > maxBinCols {
		return nil, fmt.Errorf("trace: %s: binary header claims %d columns, want %d..%d",
			path, ncols64, minCols, maxBinCols)
	}
	d := &binReader{br: br, path: path, ncols: int(ncols64)}
	d.cols = make([][]int64, d.ncols)
	for i := range d.cols {
		d.cols[i] = make([]int64, 0, binBlockRows)
	}
	return d, nil
}

// readBlock decodes the next block into d.cols (and d.strs when
// withStrings). It returns n == 0 at a clean EOF. A torn or corrupt
// block returns (lost, err) where lost is the number of records the
// block claimed (the tolerant caller's skipped increment).
func (d *binReader) readBlock(withStrings bool) (n, lost int, err error) {
	n64, err := binary.ReadUvarint(d.br)
	if err == io.EOF {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 1, fmt.Errorf("trace: %s: torn binary block header: %w", d.path, err)
	}
	if n64 == 0 || n64 > maxBinRows {
		return 0, 1, fmt.Errorf("trace: %s: binary block claims %d rows (max %d)", d.path, n64, maxBinRows)
	}
	n = int(n64)
	if withStrings {
		d.strs = d.strs[:0]
		for i := 0; i < n; i++ {
			l64, err := binary.ReadUvarint(d.br)
			if err != nil {
				return 0, n, fmt.Errorf("trace: %s: torn binary block: %w", d.path, err)
			}
			if l64 > maxBinStr {
				return 0, n, fmt.Errorf("trace: %s: binary string length %d (max %d)", d.path, l64, maxBinStr)
			}
			buf := make([]byte, l64)
			if _, err := io.ReadFull(d.br, buf); err != nil {
				return 0, n, fmt.Errorf("trace: %s: torn binary block: %w", d.path, err)
			}
			d.strs = append(d.strs, string(buf))
		}
	}
	for c := 0; c < d.ncols; c++ {
		col := d.cols[c][:0]
		for i := 0; i < n; i++ {
			u, err := binary.ReadUvarint(d.br)
			if err != nil {
				return 0, n, fmt.Errorf("trace: %s: torn binary block: %w", d.path, err)
			}
			col = append(col, unzigzag(u))
		}
		d.cols[c] = col
	}
	return n, 0, nil
}

// scanBin drives block decoding for one file: row(i) validates and
// yields row i of d.cols/d.strs, returning a validation error (which is
// skipped per row in tolerant mode, fatal otherwise). Torn/corrupt
// blocks end a tolerant scan with the block's rows counted as skipped.
func scanBin(d *binReader, withStrings bool, tolerant bool, row func(i int) error) (int, error) {
	if d == nil { // empty file
		return 0, nil
	}
	skipped := 0
	for {
		n, lost, err := d.readBlock(withStrings)
		if err != nil {
			if tolerant {
				return skipped + lost, nil
			}
			return 0, err
		}
		if n == 0 {
			return skipped, nil
		}
		for i := 0; i < n; i++ {
			if err := row(i); err != nil {
				if tolerant {
					skipped++
					continue
				}
				return 0, err
			}
		}
	}
}

// papiRow fills row (7 columns plus one per configured event) with r.
// Columnar blocks need a uniform width; ragged counter lists (possible
// only in hand-edited CSV) pad with zeros or truncate.
func papiRow(row []int64, r PAPIRecord) []int64 {
	row[0], row[1] = int64(r.SrcNode), int64(r.SrcPE)
	row[2], row[3] = int64(r.DstNode), int64(r.DstPE)
	row[4], row[5], row[6] = int64(r.PktSize), int64(r.MailboxID), int64(r.NumSends)
	clear(row[7:])
	copy(row[7:], r.Counters)
	return row
}

// Per-kind binary scanners, mirroring the CSV scanners in fastio.go.

func scanLogicalBin(br *bufio.Reader, path string, npes int, tolerant bool, yield func(LogicalRecord)) (int, error) {
	d, err := newBinReader(br, path, binKindLogical, 5)
	if err != nil {
		return binHeaderErr(err, tolerant)
	}
	return scanBin(d, false, tolerant, func(i int) error {
		src, dst := int(d.cols[1][i]), int(d.cols[3][i])
		if err := checkPERange("logical", src, dst, npes); err != nil {
			return err
		}
		yield(LogicalRecord{
			SrcNode: int(d.cols[0][i]), SrcPE: src,
			DstNode: int(d.cols[2][i]), DstPE: dst, MsgSize: int(d.cols[4][i]),
		})
		return nil
	})
}

func scanPAPIBin(br *bufio.Reader, path string, npes int, tolerant bool, yield func(PAPIRecord)) (int, error) {
	d, err := newBinReader(br, path, binKindPAPI, 7)
	if err != nil {
		return binHeaderErr(err, tolerant)
	}
	return scanBin(d, false, tolerant, func(i int) error {
		src, dst := int(d.cols[1][i]), int(d.cols[3][i])
		if err := checkPERange("PAPI", src, dst, npes); err != nil {
			return err
		}
		counters := d.counters(d.ncols - 7)
		for c := 7; c < d.ncols; c++ {
			counters[c-7] = d.cols[c][i]
		}
		yield(PAPIRecord{
			SrcNode: int(d.cols[0][i]), SrcPE: src,
			DstNode: int(d.cols[2][i]), DstPE: dst,
			PktSize: int(d.cols[4][i]), MailboxID: int(d.cols[5][i]), NumSends: int(d.cols[6][i]),
			Counters: counters,
		})
		return nil
	})
}

func scanPhysicalBin(br *bufio.Reader, path string, npes int, tolerant bool, yield func(PhysicalRecord)) (int, error) {
	d, err := newBinReader(br, path, binKindPhysical, binPhysicalMinCols)
	if err != nil {
		return binHeaderErr(err, tolerant)
	}
	return scanBin(d, false, tolerant, func(i int) error {
		kind := d.cols[0][i]
		if kind < 0 || kind > 2 {
			return fmt.Errorf("trace: unknown send type %d in %s", kind, path)
		}
		src, dst := int(d.cols[2][i]), int(d.cols[3][i])
		if err := checkPERange("physical", src, dst, npes); err != nil {
			return err
		}
		rec := PhysicalRecord{
			Kind: conveyor.SendKind(kind), BufBytes: int(d.cols[1][i]), SrcPE: src, DstPE: dst,
		}
		// Column 4 (virtual-clock cycles) was added after the base
		// format shipped; files written before it simply lack the
		// column and load with Cycles == 0, exactly as CSV does.
		if d.ncols >= binPhysicalCols {
			rec.Cycles = d.cols[4][i]
		}
		yield(rec)
		return nil
	})
}

func scanOverallBin(br *bufio.Reader, path string, tolerant bool, yield func(OverallRecord)) (int, error) {
	d, err := newBinReader(br, path, binKindOverall, 4)
	if err != nil {
		return binHeaderErr(err, tolerant)
	}
	return scanBin(d, false, tolerant, func(i int) error {
		m, c, p := d.cols[1][i], d.cols[2][i], d.cols[3][i]
		yield(OverallRecord{
			PE: int(d.cols[0][i]), TMain: m, TComm: c, TProc: p, TTotal: m + c + p,
		})
		return nil
	})
}

func scanSegmentsBin(br *bufio.Reader, path string, npes int, tolerant bool, yield func(SegmentRecord)) (int, error) {
	d, err := newBinReader(br, path, binKindSegments, 3)
	if err != nil {
		return binHeaderErr(err, tolerant)
	}
	return scanBin(d, true, tolerant, func(i int) error {
		if err := checkSegmentPE(int(d.cols[0][i]), npes); err != nil {
			return err
		}
		counters := d.counters(d.ncols - 3)
		for c := 3; c < d.ncols; c++ {
			counters[c-3] = d.cols[c][i]
		}
		yield(SegmentRecord{
			PE: int(d.cols[0][i]), Name: d.strs[i],
			Count: d.cols[1][i], Cycles: d.cols[2][i], Counters: counters,
		})
		return nil
	})
}

// binHeaderErr maps a bad header to tolerant semantics: the whole file
// is unreadable, which counts as one skipped artifact.
func binHeaderErr(err error, tolerant bool) (int, error) {
	if tolerant {
		return 1, nil
	}
	return 0, err
}
