package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto. The
// benchmark needs only each sample's stack of function names, so this
// file decodes just those fields of the protobuf wire format.

// Field numbers in profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// stackSample is one profile sample: function names from the innermost
// frame outwards, and its sample count.
type stackSample struct {
	stack []string
	count int64
}

// pbField is one decoded protobuf field.
type pbField struct {
	num  int
	wire int
	u    uint64 // varint value
	b    []byte // length-delimited payload
}

func pbFields(b []byte, fn func(f pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			f.u, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			f.u, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			f.u, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated uint64 field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.u), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes a gzipped pprof CPU profile into stacks.
func parseCPUProfile(r io.Reader) ([]stackSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case profSample:
			var s rawSample
			err := pbFields(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case sampleLocationID:
					s.locs, err = pbUints(s.locs, g)
				case sampleValue:
					s.values, err = pbUints(s.values, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case locationID:
					id = g.u
				case locationLine:
					return pbFields(g.b, func(h pbField) error {
						if h.num == lineFunction {
							fns = append(fns, h.u)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case functionID:
					id = g.u
				case functionName:
					name = int64(g.u)
				}
				return nil
			})
			funcs[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var st stackSample
		if len(s.values) > 0 {
			st.count = int64(s.values[0])
		}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				if idx := funcs[fid]; idx >= 0 && idx < int64(len(strs)) {
					st.stack = append(st.stack, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

const repoPrefix = "actorprof/internal/"

// layerBuckets maps repository packages to the layers the benchmark
// reports; packages not listed report under their own name.
var layerBuckets = map[string]string{
	"hclib": "actor", // the HClib facade is the actor runtime's scheduler
	"tsc":   "sim",   // timestamp counters feed the simulated clock
	"stats": "viz",   // quartiles and densities exist for the plots
	"fault": "shmem", // injection hooks are nil checks in the runtime
}

// layerOf attributes one stack (innermost frame first) to a layer: the
// package of its innermost actorprof/internal frame, with the what-if
// schedule recorder counted as "capture". Stacks with no repository
// frame go to "gc" (background GC work), "sched" (the Go scheduler) or
// "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, repoPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if pkg == "sim" && (strings.Contains(rest, "(*PELog)") || strings.Contains(rest, "(*ScheduleRecorder)")) {
			return "capture"
		}
		if b, ok := layerBuckets[pkg]; ok {
			return b
		}
		return pkg
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.gcDrain"):
			return "gc"
		case fn == "runtime.schedule", fn == "runtime.findRunnable", fn == "runtime.mcall",
			fn == "runtime.park_m", fn == "runtime.goschedImpl", fn == "runtime.gopreempt_m",
			fn == "runtime.goexit0", fn == "runtime.stealWork":
			return "sched"
		}
	}
	return "other"
}

// layerShares returns each layer's share of the samples.
func layerShares(samples []stackSample) (shares map[string]float64, total int64) {
	counts := map[string]int64{}
	for _, s := range samples {
		counts[layerOf(s.stack)] += s.count
		total += s.count
	}
	shares = map[string]float64{}
	for l, c := range counts {
		if total > 0 {
			shares[l] = float64(c) / float64(total)
		}
	}
	return shares, total
}
