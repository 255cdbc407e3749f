package main

// A reader for the CPU profiles runtime/pprof writes, just deep enough
// to attribute samples to layers. The standard library exposes no
// profile parser, so this decodes the few profile.proto fields it needs
// (sample, location, line, function, string_table) from the protobuf
// wire format directly.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerProfile decodes a gzipped pprof CPU profile and sums each
// sample's CPU nanoseconds into the layer that owns it (see layerOf).
func layerProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string // leaf first
		for _, id := range s.locs {
			for _, fn := range p.locLines[id] {
				stack = append(stack, p.strings[p.funcName[fn]])
			}
		}
		out[layerOf(stack)] += s.values[len(s.values)-1] // cpu/nanoseconds
	}
	return out, nil
}

// gcRoots mark a sample as garbage collection or allocation wherever
// they appear on its stack; malloc-driven assists run under mallocgc.
var gcRoots = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.GC",
	"runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// layerPkgs maps package paths to layers; anything else is "other".
var layerPkgs = map[string]string{
	"cobra/internal/cpu":     "cpu",
	"cobra/internal/mem":     "mem",
	"cobra/internal/cache":   "cache",
	"cobra/internal/sim":     "sim",
	"cobra/internal/phi":     "phi",
	"cobra/internal/kernels": "kernels",
	"cobra/internal/stream":  "stream",
	"cobra/internal/srv":     "srv",
	"encoding/json":          "nethttp",
}

// layerOf attributes one sample: to "gc" when a GC or allocation root
// is anywhere on the stack, otherwise flat, to the package of the
// innermost (possibly inlined) function.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, r := range gcRoots {
			if fn == r || strings.HasPrefix(fn, r+"[") {
				return "gc"
			}
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	pkg := pkgOf(stack[0])
	if pkg == "net/http" || strings.HasPrefix(pkg, "net/http/") {
		return "nethttp"
	}
	if l, ok := layerPkgs[pkg]; ok {
		return l
	}
	return "other"
}

// pkgOf extracts the package path from a symbol such as
// "cobra/internal/cache.(*Cache).Access" or
// "cobra/internal/exp.MapCellsCtx[go.shape.struct {...}]".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

type sample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLoc   = 1
	sampleValue = 2

	locID   = 1
	locLine = 4

	lineFunc = 1

	funcID   = 1
	funcName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case profSample:
			var s sample
			err := fields(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case sampleLoc:
					return varints(v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return varints(v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return fields(sub, func(num int, v uint64, _ []byte) error {
						if num == lineFunc {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := fields(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profStrings:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling f with each field's
// number and either its varint value (wire type 0) or its bytes (wire
// type 2). Fixed-width fields are skipped.
func fields(b []byte, f func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := f(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated integer field in either encoding: one
// varint per field (sub == nil) or packed into a byte string.
func varints(v uint64, sub []byte, f func(uint64)) error {
	if sub == nil {
		f(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errTruncated
		}
		f(x)
		sub = sub[n:]
	}
	return nil
}
