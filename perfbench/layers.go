package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// layerOf maps a fully qualified Go function name to the repository
// layer (module) it belongs to, or "" when the function is outside the
// repository. Names look like "stfm/internal/memctrl.(*Controller).Tick"
// or "main.(*probeStream).Next"; the package is everything before the
// first '.' after the last '/'.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 { // generic instantiation
		pkg = pkg[:i]
	}
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "main" || pkg == "stfm/perfbench": // the latter in test binaries
		return "bench"
	case pkg == "stfm/internal/memctrl/policy":
		return "policy"
	case pkg == "stfm":
		return "sim"
	}
	rest, ok := strings.CutPrefix(pkg, "stfm/internal/")
	if !ok {
		return ""
	}
	switch rest {
	case "workloads":
		return "trace" // the benchmark profile tables the generators read
	case "metrics":
		return "experiments" // the paper's metric formulas the runner applies
	}
	for _, l := range layers {
		if rest == l {
			return l
		}
	}
	return ""
}

// bucket attributes one stack, given leaf first, to the layer of its
// leaf-most repository frame: a layer is charged for the standard
// library and runtime work (allocation, maps, syscalls) it calls into.
// Stacks with no repository frame (background GC, the scheduler, idle
// network polling) go to "runtime".
func bucket(frames []string) string {
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// cpuSplit is a decoded CPU profile summed per layer.
type cpuSplit struct {
	Samples int64            // samples in the profile
	NS      map[string]int64 // CPU nanoseconds per layer
	TotalNS int64
}

// decodeCPUProfile reads a gzipped pprof profile as runtime/pprof writes
// it and sums its CPU time per layer. It decodes only the fields it
// needs: sample types, samples, locations with their lines, functions and
// the string table.
func decodeCPUProfile(data []byte) (*cpuSplit, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []int64 // string index of each value's type
		samples     []sample
		locLines    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcName    = map[uint64]int64{}    // function id -> string index
		strs        []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return eachUint(w, v, bb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachUint(w, v, bb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(bb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := &cpuSplit{NS: map[string]int64{}}
	var frames []string
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			continue
		}
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				frames = append(frames, str(funcName[fn]))
			}
		}
		ns := s.values[cpuIdx]
		out.NS[bucket(frames)] += ns
		out.TotalNS += ns
		out.Samples += s.values[0]
	}
	return out, nil
}

// eachField walks one protobuf message, calling f with each field's
// number and wire type and its varint value (wire types 0, 1, 5) or its
// bytes (wire type 2).
func eachField(b []byte, f func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachUint yields a repeated integer field's values, packed or not.
func eachUint(wire int, v uint64, data []byte, f func(uint64)) error {
	if wire != 2 {
		f(v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		f(x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// allocSnapshot is the cumulative heap-allocation count per stack from
// runtime.MemProfile. Diffing two snapshots gives the allocations made
// between them; with runtime.MemProfileRate = 1 every allocation is
// recorded, so the counts are exact.
type allocSnapshot map[[32]uintptr]int64

func takeAllocSnapshot() allocSnapshot {
	// A record becomes visible only after the garbage collections that
	// follow the allocation complete.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	snap := allocSnapshot{}
	for _, r := range recs {
		snap[r.Stack0] += r.AllocObjects
	}
	return snap
}

// allocsByLayer attributes the allocations made between before and after
// to layers by the same rule as CPU samples.
func allocsByLayer(before, after allocSnapshot) map[string]int64 {
	out := map[string]int64{}
	var frames []string
	for stk, n := range after {
		d := n - before[stk]
		if d <= 0 {
			continue
		}
		frames = frames[:0]
		pcs := stk[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		fr := runtime.CallersFrames(pcs)
		for {
			f, more := fr.Next()
			frames = append(frames, f.Function)
			if !more {
				break
			}
		}
		out[bucket(frames)] += d
	}
	return out
}
