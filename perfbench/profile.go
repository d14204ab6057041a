package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto), enough to attribute every sample to a layer: the
// innermost frame of a scimpich/internal/<pkg> function names the layer;
// samples with no such frame go to the driver when a frame of the
// benchmark itself is on the stack, and to the Go runtime otherwise
// (garbage collection, the scheduler, or anything else).

// The profiler label that separates the measured part of a traced pass
// (set-up and fabric runs) from the driver's own preparation and checks.
const (
	phaseLabel    = "phase"
	phasePrep     = "prep"
	phaseMeasured = "measured"
)

// layerShares maps a layer to its CPU nanoseconds in the profile.
type layerShares map[string]int64

func (s layerShares) total() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// share returns the layer's percentage of all samples.
func (s layerShares) share(layer string) float64 {
	t := s.total()
	if t == 0 {
		return 0
	}
	return 100 * float64(s[layer]) / float64(t)
}

// attributeProfile decodes a gzipped CPU profile and sums each sample's
// CPU time into its layer, leaving out samples labelled as the driver's
// preparation.
func attributeProfile(data []byte) (layerShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("read profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		value  int64
		labels [][2]int64 // (key, value) string indices
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						vals = append(vals, int64(x))
					}
				case 3: // Label
					var kv [2]int64
					err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			// Values are (sample count, CPU nanoseconds).
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := layerShares{}
	for _, s := range samples {
		prep := false
		for _, kv := range s.labels {
			prep = prep || str(kv[0]) == phaseLabel && str(kv[1]) == phasePrep
		}
		if prep {
			continue
		}
		var frames []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				frames = append(frames, str(fnName[f]))
			}
		}
		out[frameLayer(frames)] += s.value
	}
	return out, nil
}

// frameLayer classifies a stack, innermost frame first.
func frameLayer(frames []string) string {
	const repo = "scimpich/internal/"
	for _, f := range frames {
		if strings.HasPrefix(f, repo) {
			pkg := f[len(repo):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if isLayer(pkg) {
				return pkg
			}
			return "internal_other"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "driver"
		}
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.gc"), strings.HasPrefix(f, "runtime.markroot"),
			strings.HasPrefix(f, "runtime.scanobject"), strings.HasPrefix(f, "runtime.bgsweep"),
			strings.HasPrefix(f, "runtime.bgscavenge"), strings.HasPrefix(f, "runtime.sweepone"):
			return "runtime.gc"
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.park_m",
			"runtime.goschedImpl", "runtime.gosched_m", "runtime.stopm", "runtime.mstart",
			"runtime.goexit0", "runtime.exitsyscall0", "runtime.wakep", "runtime.startm":
			return "runtime.sched"
		}
	}
	return "runtime.other"
}

// layers are the modules reported one by one; other internal packages
// are summed into internal_other.
var layers = []string{"sim", "flow", "pack", "datatype", "sci", "mpi", "osc"}

func isLayer(pkg string) bool {
	for _, l := range layers {
		if l == pkg {
			return true
		}
	}
	return false
}

// eachField walks the fields of one protobuf message. For varint fields v
// holds the value; for length-delimited fields b holds the payload.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
