package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// This file reads the CPU profile that runtime/pprof writes (a gzipped
// profile.proto message) and groups its self time by package. The
// module is standard-library only, so it decodes the few protobuf
// fields it needs itself instead of importing a pprof library.

// cpuProfile is the part of a profile.proto the grouping needs.
type cpuProfile struct {
	// valueIndex is the position of the cpu/nanoseconds value in each
	// sample's value list.
	valueIndex int
	samples    []profSample
	// funcName maps a function id to its name; locFuncs maps a location
	// id to its function ids, innermost (inlined leaf) first.
	funcName map[uint64]string
	locFuncs map[uint64][]uint64
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes a gzipped or raw profile.proto message.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &cpuProfile{valueIndex: -1, funcName: map[uint64]string{}, locFuncs: map[uint64][]uint64{}}
	var strs []string
	var sampleTypes [][2]int64 // (type, unit) string indexes
	funcNameIdx := map[uint64]int64{}
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample
			var s profSample
			err := eachField(b, func(f, w int, v uint64, bb []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, w, v, bb)
				case 2:
					var u []uint64
					if err := appendPacked(&u, w, v, bb); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(bb, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for id, idx := range funcNameIdx {
		p.funcName[id] = str(idx)
	}
	for i, t := range sampleTypes {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			p.valueIndex = i
		}
	}
	if p.valueIndex < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	return p, nil
}

// appendPacked adds one repeated-varint field occurrence, which the
// encoder may write packed (wire type 2) or one value at a time.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with the field
// number, wire type, the varint value (wire type 0) and the payload
// (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// funcPackage returns the import path of a Go symbol name such as
// "cenju4/internal/sim.(*Engine).Run" or "runtime.mallocgc". Type
// arguments of generic instantiations may themselves contain paths, so
// they are cut off first.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// gcFrame reports whether a frame belongs to garbage-collector work:
// background and assist marking, write-barrier flushes, sweeping and
// scavenging. Allocation itself (mallocgc) stays in "runtime".
func gcFrame(name string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.wbBufFlush"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// layerOf maps a sample's stack (leaf first) to the row of the profile
// table that owns its self time: the repository package the leaf
// frame is in ("sim", "network", ...), "gc" for any sample inside
// garbage-collector work, "runtime" for the rest of the Go runtime,
// "perfbench" for this benchmark, and "stdlib" for everything else.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcFrame(fn) {
			return "gc"
		}
	}
	if len(stack) == 0 {
		return "unknown"
	}
	pkg := funcPackage(stack[0])
	switch {
	case strings.HasPrefix(pkg, "cenju4/internal/"):
		rest := strings.TrimPrefix(pkg, "cenju4/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "main" || strings.HasPrefix(pkg, "cenju4/perfbench"):
		return "perfbench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	case strings.HasPrefix(pkg, "cenju4"):
		return "cenju4"
	}
	return "stdlib"
}

// selfTime returns each layer's self time in nanoseconds: its share of
// the profile's samples times cpu, the CPU time the process used while
// profiling. The sample count fixes the shares; scaling by measured CPU
// time instead of samples x period keeps the figures right when the
// kernel delivers profiling signals slower than asked, and keeps them
// from being multiples of the sampling period.
func (p *cpuProfile) selfTime(cpu time.Duration) map[string]int64 {
	raw := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if p.valueIndex >= len(s.values) {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.funcName[fid])
			}
		}
		raw[layerOf(stack)] += s.values[p.valueIndex]
		total += s.values[p.valueIndex]
	}
	out := make(map[string]int64, len(raw))
	for layer, v := range raw {
		out[layer] = int64(float64(v) / float64(total) * float64(cpu))
	}
	return out
}

// profileTable renders the self-time table, largest first, with each
// row's share of the whole profile; the shares sum to 100%.
func profileTable(self map[string]int64, iters int) string {
	var total int64
	names := make([]string, 0, len(self))
	for name, ns := range self {
		total += ns
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s %7s\n", "layer", "self_s", "self_s/iter", "share")
	for _, name := range names {
		ns := self[name]
		fmt.Fprintf(&b, "%-12s %12.4f %12.4f %6.2f%%\n", name, float64(ns)/1e9,
			float64(ns)/1e9/float64(iters), 100*float64(ns)/float64(total))
	}
	fmt.Fprintf(&b, "%-12s %12.4f %12.4f %6.2f%%\n", "total", float64(total)/1e9,
		float64(total)/1e9/float64(iters), 100.0)
	return b.String()
}
