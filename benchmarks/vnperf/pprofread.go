package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small reader for the gzip-compressed protobuf that runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto). It decodes exactly what the
// per-layer CPU attribution needs — each sample's stack as function names,
// leaf first, and its value — so the benchmark needs no module outside the
// standard library and no external tool.

// profSample is one stack with the time the profiler charged to it.
type profSample struct {
	stack []string // function names, leaf first
	value int64    // the profile's last value type: CPU nanoseconds
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("pprof: truncated message")

type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// field reads one field header and its payload. For varint fields the value
// is in v; for length-delimited fields the bytes are in data.
func (p *pbuf) field() (num int, wt int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case wireVarint:
		v, err = p.varint()
	case wire64:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case wire32:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	case wireBytes:
		var n uint64
		if n, err = p.varint(); err != nil {
			return 0, 0, 0, nil, err
		}
		if uint64(len(p.b)) < n {
			return 0, 0, 0, nil, errTruncated
		}
		data, p.b = p.b[:n], p.b[n:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wt)
	}
	return num, wt, v, data, err
}

// repeatedVarints appends a repeated integer field's values, whether the
// writer packed them into one length-delimited field or not.
func repeatedVarints(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == wireVarint {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed pprof profile.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		strs      []string
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string table index
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, wt, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		if wt != wireBytes {
			continue
		}
		switch num {
		case 2: // Sample
			var s rawSample
			m := pbuf{data}
			for len(m.b) > 0 {
				n, w, v, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeatedVarints(s.locs, w, v, d)
				case 2:
					s.values, err = repeatedVarints(s.values, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				n, w, v, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch {
				case n == 1 && w == wireVarint:
					id = v
				case n == 4 && w == wireBytes: // Line
					l := pbuf{d}
					for len(l.b) > 0 {
						ln, lw, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 && lw == wireVarint {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				n, w, v, _, err := m.field()
				if err != nil {
					return nil, err
				}
				if w != wireVarint {
					continue
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// Buckets of the CPU attribution: the repository's layers, this harness, two
// slices of the Go runtime, and everything else (the rest of the runtime and
// the standard library).
const (
	bucketHarness = "harness"
	bucketSched   = "runtime.sched"
	bucketGC      = "runtime.gc"
	bucketOther   = "other"
)

var layerBuckets = []string{"sim", "netsim", "nic", "hostos", "core", "rpc", "reliab", "serve", "obs", "trace"}

const modulePrefix = "virtnet/internal/"

// Runtime functions whose presence in a stack says what the time was for.
var (
	gcMarkers = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.mallocgc",
		"runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
		"runtime.(*mheap).alloc", "runtime.newobject", "runtime.makeslice", "runtime.growslice"}
	schedMarkers = []string{"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.mcall", "runtime.futex", "runtime.futexsleep", "runtime.futexwakeup", "runtime.notesleep",
		"runtime.notewakeup", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.goexit0",
		"runtime.newproc", "runtime.gosched_m", "runtime.usleep", "runtime.osyield", "runtime.runqgrab",
		"runtime.stealWork", "runtime.execute", "runtime.resetspinning", "runtime.mstart"}
)

// bucketOf attributes one sample. The leaf frame decides: its package is
// where the CPU was when the sample fired (self time). A leaf inside the Go
// runtime is split by what the stack was doing — goroutine hand-off and
// scheduling, or allocation and collection.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return bucketOther
	}
	leaf := stack[0]
	if rest, ok := strings.CutPrefix(leaf, modulePrefix); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, b := range layerBuckets {
			if b == pkg {
				return b
			}
		}
		return bucketOther
	}
	if strings.HasPrefix(leaf, "main.") {
		return bucketHarness
	}
	if strings.HasPrefix(leaf, "runtime.") || strings.HasPrefix(leaf, "runtime/internal/") ||
		strings.HasPrefix(leaf, "internal/runtime/") {
		for _, fn := range stack {
			if hasAnyPrefix(fn, gcMarkers) {
				return bucketGC
			}
			if hasAnyPrefix(fn, schedMarkers) {
				return bucketSched
			}
		}
	}
	return bucketOther
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// cpuFractions turns samples into each bucket's share of the profiled CPU
// time. The shares sum to 1 by construction.
func cpuFractions(samples []profSample) map[string]float64 {
	sums := map[string]int64{}
	var total int64
	for _, s := range samples {
		sums[bucketOf(s.stack)] += s.value
		total += s.value
	}
	out := map[string]float64{}
	for _, b := range append(append([]string{}, layerBuckets...), bucketHarness, bucketSched, bucketGC, bucketOther) {
		if total > 0 {
			out[b] = float64(sums[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out
}
