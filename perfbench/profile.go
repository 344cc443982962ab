package main

// CPU-profile attribution: the traced run records a runtime/pprof CPU
// profile and charges every sample to one layer. The profile is decoded
// here with a minimal protobuf reader, because the benchmark may use
// only the standard library.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the repo modules the benchmark attributes time to. Other
// cable/internal packages (obs, stats, mem, dram, energy, trace) only
// observe or do negligible work; their samples pass to the nearest
// caller that is a layer.
var layers = []string{
	"workload", "sim", "topo", "codec", "core", "compress", "cache",
	"sig", "bits", "link", "fault", "experiments",
}

const (
	layerRuntime = "runtime" // GC workers and scheduler stacks with no layer frame
	layerOther   = "other"   // the benchmark's own code and stdlib-only stacks
)

// gcFrames mark a sample as garbage-collection work, wherever the
// sample is charged.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcStart",
}

// moduleOf maps a Go function name to its cable/internal module, or ""
// for any other package. "cable/internal/workload/spec.(*Mix).Next"
// maps to "workload".
func moduleOf(fn string) string {
	const prefix = "cable/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func isLayer(m string) bool {
	for _, l := range layers {
		if l == m {
			return true
		}
	}
	return false
}

// attribute charges one stack, leaf first, to a layer: the innermost
// frame that belongs to a layer module. Stdlib frames (math/rand,
// container/heap, runtime.mallocgc) and non-layer internal packages
// are thereby charged to their nearest layer caller. Stacks with no
// layer frame go to runtime when they are runtime or GC work, and to
// other otherwise.
func attribute(stack []string) string {
	for _, fn := range stack {
		if m := moduleOf(fn); isLayer(m) {
			return m
		}
	}
	if isGC(stack) || (len(stack) > 0 && strings.HasPrefix(stack[0], "runtime.")) {
		return layerRuntime
	}
	return layerOther
}

func isGC(stack []string) bool {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return true
			}
		}
	}
	return false
}

// profileSplit is a CPU profile reduced to per-layer sample weights.
type profileSplit struct {
	total   float64            // all sample weight (CPU ns)
	byLayer map[string]float64 // weight charged to each layer
	gc      float64            // weight of GC work
	meter   float64            // weight under a sim baseline meter
}

func (p profileSplit) share(layer string) float64 {
	if p.total == 0 {
		return 0
	}
	return p.byLayer[layer] / p.total
}

// add decodes a gzipped pprof CPU profile and charges each sample's
// CPU time with attribute.
func (p *profileSplit) add(gz []byte) error {
	stacks, weights, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	for i, st := range stacks {
		w := weights[i]
		p.total += w
		p.byLayer[attribute(st)] += w
		if isGC(st) {
			p.gc += w
		}
		if underMeter(st) {
			p.meter += w
		}
	}
	return nil
}

// underMeter reports whether a stack runs inside one of sim's baseline
// scheme meters (the comparison compressors the paper-figs cells
// attach next to CABLE).
func underMeter(stack []string) bool {
	for _, fn := range stack {
		if moduleOf(fn) == "sim" && strings.Contains(fn, "Meter)") {
			return true
		}
	}
	return false
}

// decodeProfile returns every sample's stack (function names, leaf
// first, inlined frames expanded) and its CPU weight: the nanoseconds
// value when the profile has one, else the sample count.
func decodeProfile(gz []byte) ([][]string, []float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			if err := eachField(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, wt, v, b)
				case 2:
					for _, x := range appendPacked(nil, wt, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(n, wt int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(n, wt int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	name := func(fid uint64) string {
		if i := fnName[fid]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	stacks := make([][]string, len(samples))
	weights := make([]float64, len(samples))
	for i, s := range samples {
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				stacks[i] = append(stacks[i], name(f))
			}
		}
		switch len(s.values) {
		case 0:
		case 1:
			weights[i] = float64(s.values[0])
		default:
			weights[i] = float64(s.values[1])
		}
	}
	return stacks, weights, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint/fixed value or its bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrives either as
// one varint or as a packed run.
func appendPacked(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
