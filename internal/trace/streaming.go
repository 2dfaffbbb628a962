package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"actorprof/internal/sim"
)

// Streaming mode addresses the paper's Section VI concern: FA-BSP
// programs emit message volumes whose traces reach the order of 100 GB,
// far beyond what a collector can buffer in memory. A streaming
// Collector writes every logical, PAPI, and physical record to disk the
// moment it is produced - always as APBF, so ReadSet and the visualizer
// work unchanged - and keeps only O(PEs^2) state in memory: counters,
// the overall breakdown, and the Summary every record folds into.
// Records are encoded by binary.go's block writer into per-stream column
// scratch, so the hot path stays allocation-free.
// The paper's CSV formats come from converting the finished directory
// (actorprof export -format paper).

// binStream is one APBF file a streaming collector appends to.
type binStream struct {
	f *os.File
	*binWriter
}

// openBinStream creates path and writes the APBF header for kind/ncols.
func openBinStream(path string, kind byte, ncols int) (*binStream, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	s := &binStream{f: f, binWriter: newBinWriter(w, kind, ncols)}
	// Flush the header so a live reader sniffing the file sees the magic
	// immediately, not after 64 KB of buffered blocks.
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// close flushes the final block and closes the file; a nil stream (a
// record kind the run does not trace) closes trivially.
func (s *binStream) close() error {
	if s == nil {
		return nil
	}
	return errors.Join(s.finish(), s.w.Flush(), s.f.Close())
}

// peStream holds one PE's open trace files in streaming mode: one APBF
// stream per enabled record kind.
type peStream struct {
	logical, papi, phys *binStream
	// papiRow is the PAPI column scratch, reused per record.
	papiRow []int64
}

func (s *peStream) flushClose() error {
	return errors.Join(s.logical.close(), s.papi.close(), s.phys.close())
}

// NewStreamingCollector creates a collector that writes records straight
// into dir as APBF instead of buffering them, and folds them into a
// Summary as Config.Aggregate does. Call Finalize after the run to
// complete the directory (meta, overall, physical assembly); Set() then
// carries the counters, the overall breakdown and that Summary, whose
// matrices equal ReadSummary(dir)'s - load the records back with
// ReadSet(dir, ...) when needed. FormatCSV is refused: convert the
// finished directory with actorprof export -format paper.
func NewStreamingCollector(cfg Config, machine sim.Machine, dir string) (*Collector, error) {
	c, err := newCollector(cfg, machine, true)
	if err != nil {
		return nil, err
	}
	if cfg.Format != FormatBinary {
		return nil, fmt.Errorf("trace: the streaming collector writes APBF only (got format %s); "+
			"convert the finished directory with: actorprof export -format paper -out DIR %s", cfg.Format, dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: creating stream dir: %w", err)
	}
	c.streamDir = dir
	c.streams = make([]*peStream, machine.NumPEs)
	// Write the meta file eagerly: its content depends only on the
	// configuration, and having it on disk from the start lets a viewer
	// (actorprofd) ingest the directory while the run is still executing.
	if err := c.set.writeMeta(dir); err != nil {
		return nil, err
	}
	return c, nil
}

// Streaming reports whether this collector writes records to disk as
// they are produced.
func (c *Collector) Streaming() bool { return c.streamDir != "" }

// openStreams creates the per-PE files lazily at ForPE time.
func (c *Collector) openStreams(pe int) (*peStream, error) {
	s := &peStream{}
	open := func(name string, kind byte, ncols int) (*binStream, error) {
		return openBinStream(filepath.Join(c.streamDir, name), kind, ncols)
	}
	var err error
	if c.cfg.Logical {
		if s.logical, err = open(logicalBinFile(pe), binKindLogical, 5); err != nil {
			return nil, err
		}
	}
	if nev := len(c.cfg.PAPIEvents); nev > 0 {
		if s.papi, err = open(papiBinFile(pe), binKindPAPI, 7+nev); err != nil {
			return nil, err
		}
	}
	if c.cfg.Physical {
		if s.phys, err = open(physicalPart(pe), binKindPhysical, binPhysicalCols); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// physicalPart names PE pe's unassembled physical stream.
func physicalPart(pe int) string { return fmt.Sprintf("physical.PE%d.part.bin", pe) }

// Finalize completes a streaming trace directory: flushes and closes
// every per-PE file, writes the meta file, the overall breakdown and the
// segments, assembles the per-PE physical parts into physical.bin
// (removing the parts) and builds its time index. Finalize must be
// called after every PECollector's Close. It is an error on
// non-streaming collectors.
//
// Every per-PE stream is closed even when some of them fail (the errors
// are joined), so a failing Finalize never leaks file handles; on
// failure the partial outputs of the failed step (a half-written
// physical.bin) are removed rather than left looking like a finished
// trace.
func (c *Collector) Finalize() error {
	if !c.Streaming() {
		return fmt.Errorf("trace: Finalize on a non-streaming collector")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var closeErrs []error
	for pe, s := range c.streams {
		if s == nil {
			continue
		}
		if err := s.flushClose(); err != nil {
			closeErrs = append(closeErrs, fmt.Errorf("trace: closing PE %d stream files: %w", pe, err))
		}
		c.streams[pe] = nil
	}
	if err := errors.Join(closeErrs...); err != nil {
		// A stream that failed to flush has lost records; the per-PE
		// files on disk are untrustworthy, so do not assemble the
		// directory-level outputs over them.
		return err
	}
	if err := c.set.writeMeta(c.streamDir); err != nil {
		return err
	}
	if c.cfg.Overall {
		if err := c.set.writeOverallBin(c.streamDir); err != nil {
			return err
		}
	}
	// Segments are aggregated in memory even in streaming mode (they are
	// O(PEs x names), not O(records)), so they are written here like the
	// overall breakdown.
	if c.set.hasSegments() {
		if err := c.set.writeSegmentsBin(c.streamDir); err != nil {
			return err
		}
	}
	if c.cfg.Physical {
		if err := c.assemblePhysical(); err != nil {
			return err
		}
		// Only after the assembled output is durably complete do the
		// parts go away.
		for pe := 0; pe < c.machine.NumPEs; pe++ {
			os.Remove(filepath.Join(c.streamDir, physicalPart(pe)))
		}
		if _, err := BuildTimeIndex(c.streamDir); err != nil {
			return err
		}
	}
	return nil
}

// assemblePhysical concatenates the per-PE parts into physical.bin:
// one output header, then every part's blocks with their own headers
// stripped (each part is validated to carry the physical kind and
// column count, so the concatenated block stream stays well formed).
func (c *Collector) assemblePhysical() (err error) {
	outPath := filepath.Join(c.streamDir, physicalBinFile)
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer func() {
		if out != nil {
			err = errors.Join(err, out.Close())
		}
		if err != nil {
			os.Remove(outPath)
		}
	}()
	w := bufio.NewWriterSize(out, 1<<16)
	hdr := newBinWriter(w, binKindPhysical, binPhysicalCols)
	if err := hdr.finish(); err != nil {
		return err
	}
	for pe := 0; pe < c.machine.NumPEs; pe++ {
		part := filepath.Join(c.streamDir, physicalPart(pe))
		in, openErr := os.Open(part)
		if openErr != nil {
			if os.IsNotExist(openErr) {
				continue
			}
			return openErr
		}
		br := bufio.NewReaderSize(in, 1<<16)
		d, hdrErr := newBinReader(br, part, binKindPhysical, binPhysicalMinCols)
		if hdrErr != nil {
			in.Close()
			return hdrErr
		}
		if d != nil { // nil means an empty part: nothing to copy
			if d.ncols != binPhysicalCols {
				in.Close()
				return fmt.Errorf("trace: %s: physical part has %d columns, want %d", part, d.ncols, binPhysicalCols)
			}
			if _, copyErr := io.Copy(w, br); copyErr != nil {
				in.Close()
				return copyErr
			}
		}
		if err := in.Close(); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	closeErr := out.Close()
	out = nil
	return closeErr
}

// Streaming write paths, called from the PECollector hot path for the
// record kinds the run traces. Errors are sticky in the underlying
// writers and surface at Finalize.

func (p *PECollector) streamLogical(r LogicalRecord) {
	p.stream.logical.push(int64(r.SrcNode), int64(r.SrcPE), int64(r.DstNode), int64(r.DstPE), int64(r.MsgSize))
}

func (p *PECollector) streamPAPI(r PAPIRecord) {
	s := p.stream
	if s.papiRow == nil {
		s.papiRow = make([]int64, 7+len(p.parent.cfg.PAPIEvents))
	}
	s.papi.push(papiRow(s.papiRow, r)...)
}

func (p *PECollector) streamPhysical(r PhysicalRecord) {
	p.stream.phys.push(int64(r.Kind), int64(r.BufBytes), int64(r.SrcPE), int64(r.DstPE), r.Cycles)
}
