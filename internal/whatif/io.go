package whatif

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"actorprof/internal/sim"
)

// ScheduleFileName is the recorded-schedule sidecar written next to a
// trace directory's other artifacts.
const ScheduleFileName = "schedule.bin"

// The schedule sidecar ("APSC": ActorProf SChedule) is one streamed
// binary file:
//
//	"APSC" | version (1 byte)
//	uvarint header length | header JSON {machine, timing, cost}
//	per PE, in rank order:
//	    zigzag-varint skew | uvarint event count | events
//	event: one byte kind|sameArg, then a zigzag-varint Arg unless
//	       sameArg (0x80) is set, meaning "Arg equals the previous Arg
//	       of this kind on this PE" (every kind starts at 0)
//
// The header stays JSON because it is tiny and keeps decoding when
// CostModel gains fields; the events, ~10M for a scale-12 triangle
// count, are the bytes that matter. Marker events and repeated buffer
// sizes collapse to one byte each. The reader is strict: bad magic or
// version, truncation anywhere, an unknown kind, a count the remaining
// bytes cannot hold, and trailing bytes are all errors, never panics,
// and no allocation exceeds what the file's size can back.
const (
	schedMagic   = "APSC"
	schedVersion = 1

	// schedSameArg flags an event whose Arg repeats the previous Arg of
	// its kind on the same PE; the Arg varint is then omitted.
	schedSameArg = 0x80

	// maxSchedHeader bounds the JSON header a file may claim.
	maxSchedHeader = 1 << 16

	// schedFlushAt is the scratch size at which the writer hands its
	// encoded bytes to the file.
	schedFlushAt = 1 << 16
)

// scheduleHeader is the JSON-encoded preamble of the sidecar.
type scheduleHeader struct {
	Machine sim.Machine    `json:"machine"`
	Timing  sim.TimingMode `json:"timing"`
	Cost    sim.CostModel  `json:"cost"`
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// WriteScheduleFile validates s and writes it as dir/schedule.bin. The
// file is written under a temporary name in dir and renamed into place,
// so a concurrent reader sees either the old schedule or the new one,
// never a partial file. An invalid schedule writes nothing.
func WriteScheduleFile(dir string, s *sim.Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	hdr, err := json.Marshal(scheduleHeader{Machine: s.Machine, Timing: s.Timing, Cost: s.Cost})
	if err != nil {
		return fmt.Errorf("whatif: encoding schedule header: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ScheduleFileName+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = encodeSchedule(f, hdr, s)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, ScheduleFileName))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("whatif: writing %s: %w", ScheduleFileName, err)
	}
	return nil
}

// encodeSchedule streams the sidecar encoding of s to w. One reused
// scratch slice is the write buffer: events are appended to it and it
// is handed to w whenever it fills.
func encodeSchedule(w io.Writer, hdr []byte, s *sim.Schedule) error {
	enc := make([]byte, 0, schedFlushAt+2*binary.MaxVarintLen64+len(hdr))
	enc = append(enc, schedMagic...)
	enc = append(enc, schedVersion)
	enc = binary.AppendUvarint(enc, uint64(len(hdr)))
	enc = append(enc, hdr...)
	for _, l := range s.PEs {
		enc = binary.AppendUvarint(enc, zigzag(l.Skew))
		enc = binary.AppendUvarint(enc, uint64(len(l.Events)))
		var prev [sim.NumEventKinds]int64
		for _, e := range l.Events {
			if e.Arg == prev[e.Kind] {
				enc = append(enc, byte(e.Kind)|schedSameArg)
			} else {
				enc = append(enc, byte(e.Kind))
				enc = binary.AppendUvarint(enc, zigzag(e.Arg))
				prev[e.Kind] = e.Arg
			}
			if len(enc) >= schedFlushAt {
				if _, err := w.Write(enc); err != nil {
					return err
				}
				enc = enc[:0]
			}
		}
	}
	_, err := w.Write(enc)
	return err
}

// ReadScheduleFile loads and validates dir/schedule.bin. A missing file
// is an os.ErrNotExist error: the run predates schedule capture (or was
// traced without it) and cannot be what-if profiled.
func ReadScheduleFile(dir string) (*sim.Schedule, error) {
	f, err := os.Open(filepath.Join(dir, ScheduleFileName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	s, err := decodeSchedule(bufio.NewReaderSize(f, 1<<16), fi.Size())
	if err != nil {
		return nil, fmt.Errorf("whatif: parsing %s: %w", ScheduleFileName, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("whatif: invalid %s: %w", ScheduleFileName, err)
	}
	return s, nil
}

// schedDecoder reads the sidecar while tracking how many bytes remain,
// which bounds every count the file claims.
type schedDecoder struct {
	br   *bufio.Reader
	left int64
}

// ReadByte implements io.ByteReader for binary.ReadUvarint.
func (d *schedDecoder) ReadByte() (byte, error) {
	c, err := d.br.ReadByte()
	if err == nil {
		d.left--
	}
	return c, err
}

func (d *schedDecoder) uvarint() (uint64, error) {
	u, err := binary.ReadUvarint(d)
	return u, truncated(err)
}

func (d *schedDecoder) varint() (int64, error) {
	u, err := d.uvarint()
	return unzigzag(u), err
}

// count reads a uvarint count of items that each take at least one
// byte, and rejects one the remaining bytes cannot hold.
func (d *schedDecoder) count(what string) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if d.left < 0 || n > uint64(d.left) {
		return 0, fmt.Errorf("%s %d exceeds the %d bytes left", what, n, d.left)
	}
	return int(n), nil
}

// truncated labels an end of input inside the encoding; other errors
// (and nil) pass through.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("truncated: %w", io.ErrUnexpectedEOF)
	}
	return err
}

// maxEventBytes is the longest encoded event: a kind byte and a
// ten-byte varint.
const maxEventBytes = 1 + binary.MaxVarintLen64

// events decodes len(evs) events of one PE into evs, straight out of
// the bufio.Reader's window: it refills the window whenever the next
// event might straddle its end, until the file's last bytes are in it.
// On error it returns the index of the offending event.
func (d *schedDecoder) events(evs []sim.Event) (int, error) {
	var prev [sim.NumEventKinds]int64
	i := 0
	for i < len(evs) {
		buf, err := d.br.Peek(d.br.Size())
		if len(buf) == 0 {
			return i, truncated(err)
		}
		last := err != nil // buf runs to the end of the input
		off := 0
		for i < len(evs) && (off+maxEventBytes <= len(buf) || last && off < len(buf)) {
			c := buf[off]
			off++
			k := sim.EventKind(c &^ schedSameArg)
			if k >= sim.NumEventKinds {
				return i, fmt.Errorf("unknown kind %d", k)
			}
			if c&schedSameArg == 0 {
				u, w := binary.Uvarint(buf[off:])
				if w == 0 {
					return i, truncated(io.EOF)
				}
				if w < 0 {
					return i, errors.New("varint overflows 64 bits")
				}
				off += w
				prev[k] = unzigzag(u)
			}
			evs[i] = sim.Event{Kind: k, Arg: prev[k]}
			i++
		}
		d.br.Discard(off)
		d.left -= int64(off)
	}
	return i, nil
}

// decodeSchedule parses a sidecar of size bytes from br. It does not
// run Schedule.Validate.
func decodeSchedule(br *bufio.Reader, size int64) (*sim.Schedule, error) {
	d := &schedDecoder{br: br, left: size}
	var pre [len(schedMagic) + 1]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return nil, truncated(err)
	}
	d.left -= int64(len(pre))
	if string(pre[:len(schedMagic)]) != schedMagic {
		return nil, fmt.Errorf("bad magic %q", pre[:len(schedMagic)])
	}
	if v := pre[len(schedMagic)]; v != schedVersion {
		return nil, fmt.Errorf("unsupported version %d (want %d)", v, schedVersion)
	}
	n, err := d.count("header length")
	if err != nil {
		return nil, err
	}
	if n > maxSchedHeader {
		return nil, fmt.Errorf("header length %d exceeds %d", n, maxSchedHeader)
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(br, raw); err != nil {
		return nil, truncated(err)
	}
	d.left -= int64(n)
	var hdr scheduleHeader
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("header: trailing data after JSON")
	}
	if err := hdr.Machine.Validate(); err != nil {
		return nil, err
	}
	// Each PE takes at least two bytes (skew and event count).
	if int64(hdr.Machine.NumPEs) > d.left/2 {
		return nil, fmt.Errorf("%d PEs exceed the %d bytes left", hdr.Machine.NumPEs, d.left)
	}
	s := &sim.Schedule{Machine: hdr.Machine, Timing: hdr.Timing, Cost: hdr.Cost}
	s.PEs = make([]*sim.PELog, hdr.Machine.NumPEs)
	for rank := range s.PEs {
		l := &sim.PELog{}
		if l.Skew, err = d.varint(); err != nil {
			return nil, fmt.Errorf("PE %d skew: %w", rank, err)
		}
		n, err := d.count("event count")
		if err != nil {
			return nil, fmt.Errorf("PE %d: %w", rank, err)
		}
		if n > 0 {
			l.Events = make([]sim.Event, n)
		}
		if i, err := d.events(l.Events); err != nil {
			return nil, fmt.Errorf("PE %d event %d: %w", rank, i, err)
		}
		s.PEs[rank] = l
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return nil, err
		}
		return nil, errors.New("trailing bytes after the last PE")
	}
	return s, nil
}

// HasSchedule reports whether dir carries a recorded schedule.
func HasSchedule(dir string) bool {
	fi, err := os.Stat(filepath.Join(dir, ScheduleFileName))
	return err == nil && !fi.IsDir()
}
