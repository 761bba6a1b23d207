package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// spanRec is one recorded span. Spans of one repeat share Run; Parent is the
// ID of the span that was open when this one began (-1 at top level). Times
// are nanoseconds since the tracer was created.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing; all methods are nil-safe. Spans are only opened from the
// benchmark's own goroutine, so a stack gives the parent.
type tracer struct {
	t0    time.Time
	run   int
	spans []spanRec
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) nextRun() {
	if t != nil {
		t.run++
	}
}

func (t *tracer) begin(name, tag string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Run: t.run, Name: name, Tag: tag, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// layerOf maps a Go function name, as a CPU profile spells it, to the layer
// its package belongs to: dxbar/internal/<pkg> is layer <pkg> when that is a
// named layer, the Go runtime (GC, scheduler, allocator, memmove, atomics)
// is "runtime", everything else - the facade, the standard library, this
// program - is "other".
func layerOf(fn string) string {
	// Type arguments of generic instantiations may contain slashes and dots.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "dxbar/internal/"):
		name := strings.TrimPrefix(pkg, "dxbar/internal/")
		for _, l := range layerNames {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// leafSample is one CPU-profile sample reduced to what attribution needs:
// the innermost function (after inlining) and the CPU time it stands for.
type leafSample struct {
	Func  string
	Nanos int64
}

// layerCPU sums samples by layer. Every sample lands in exactly one layer,
// so the values add up to the profile's total.
func layerCPU(samples []leafSample) map[string]time.Duration {
	out := make(map[string]time.Duration, len(layerNames))
	for _, s := range samples {
		out[layerOf(s.Func)] += time.Duration(s.Nanos)
	}
	return out
}

// parseCPUProfile decodes the gzip-compressed profile.proto that
// runtime/pprof writes, keeping only each sample's leaf function and its
// CPU nanoseconds (sample value 1). The toolchain in the image has no
// profile-parsing package outside cmd/, so the few fields needed are read
// straight off the wire format.
func parseCPUProfile(data []byte) ([]leafSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		nanos int64
	}
	var (
		samples  []sample
		leafFunc = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]int64{}  // function id -> string-table index
		strs     []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var locs, vals []uint64
			if err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendUints(locs, v, b)
				case 2:
					vals = appendUints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				s.leaf, s.nanos = locs[0], int64(vals[len(vals)-1])
				samples = append(samples, s)
			}
		case 4: // Location
			var id, fn uint64
			seen := false
			if err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first one is the innermost inlined function
					if seen {
						return nil
					}
					seen = true
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			leafFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]leafSample, 0, len(samples))
	for _, s := range samples {
		name := ""
		if idx := funcName[leafFunc[s.leaf]]; idx > 0 && idx < int64(len(strs)) {
			name = strs[idx]
		}
		out = append(out, leafSample{Func: name, Nanos: s.nanos})
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// protoFields calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func protoFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field's value(s): packed (payload)
// or a single unpacked varint.
func appendUints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
