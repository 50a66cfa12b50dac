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

// layers are the modules the CPU profile is attributed to, named after
// the packages under internal/, plus the Go runtime.
var layers = []string{
	"trace", "queue", "sim", "gpu", "core", "metrics", "cluster",
	"autoscale", "pool", "vm", "market", "controlplane", "runtime",
}

const repoPrefix = "protean/internal/"

// goroutineRoots are the runtime frames every goroutine's stack ends
// in. They sit under all of a goroutine's work, benchmark code
// included, so they name no layer: were they the runtime's, no sample
// could ever go unattributed.
var goroutineRoots = map[string]bool{"runtime.main": true, "runtime.goexit": true}

// frameLayer names the layer a profiled frame belongs to. A frame in
// one of the layer packages (or the runtime) belongs to that layer and
// only that one. Every other frame — the standard library outside the
// runtime, repository packages that are not layers (obs, model,
// reconfig, …), the benchmark itself, a goroutine root — returns "",
// meaning its time belongs to the nearest layer frame above it on the
// stack, or to no layer when there is none.
func frameLayer(fn string) string {
	if goroutineRoots[fn] {
		return ""
	}
	pkg := funcPackage(fn)
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, repoPrefix):
		name := strings.TrimPrefix(pkg, repoPrefix)
		for _, l := range layers {
			if l == name {
				return l
			}
		}
	}
	return ""
}

// funcPackage returns the import path of a symbol as pprof names it,
// e.g. "protean/internal/metrics" for
// "protean/internal/metrics.(*Recorder).Add".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop type arguments, which may hold '/' and '.'
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// sampleLayer attributes one sample's self time: the layer of its leaf
// frame, or of the nearest layer frame above it. stack runs leaf first.
// A stack with no layer frame returns "".
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return ""
}

// attribution is a CPU profile grouped by layer.
type attribution struct {
	// self is each layer's self CPU seconds.
	self map[string]float64
	// cum is each layer's cumulative CPU seconds: samples with at least
	// one frame in the layer, counted once.
	cum map[string]float64
	// total and unattributed are all sampled CPU seconds and the part
	// with no layer frame.
	total, unattributed float64
}

// attributedFrac is the share of sampled CPU named to a layer.
func (a attribution) attributedFrac() float64 {
	return ratio(a.total-a.unattributed, a.total)
}

// attribute groups a gzipped pprof CPU profile by layer.
func attribute(gz []byte) (attribution, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return attribution{}, err
	}
	a := attribution{self: map[string]float64{}, cum: map[string]float64{}}
	for _, s := range samples {
		sec := float64(s.nanos) / 1e9
		a.total += sec
		l := sampleLayer(s.stack)
		if l == "" {
			a.unattributed += sec
		} else {
			a.self[l] += sec
		}
		seen := map[string]bool{}
		for _, fn := range s.stack {
			if fl := frameLayer(fn); fl != "" && !seen[fl] {
				seen[fl] = true
				a.cum[fl] += sec
			}
		}
	}
	return a, nil
}

// profSample is one CPU profile sample.
type profSample struct {
	// stack holds function names, leaf first, inlined frames expanded.
	stack []string
	// nanos is the sample's CPU time.
	nanos int64
}

// parseProfile decodes a gzipped profile.proto (the format
// runtime/pprof writes) far enough to recover each sample's function
// stack and CPU nanoseconds.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		units     []int64                 // sample_type unit string indices, per value column
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames = map[uint64]int64{}    // function id → name string index
		strs      []string
	)
	err = eachField(raw, func(num, _ int, _ uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var unit int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 2 {
					unit = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			units = append(units, unit)
		case 2: // sample
			var s rawSample
			if err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					s.locs = appendUints(s.locs, w, v, bb)
				case 2:
					for _, u := range appendUints(nil, w, v, bb) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line; several mean inlined calls, callee first
					return eachField(bb, func(n, _ int, v uint64, _ []byte) error {
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
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
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
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	valueIdx := -1
	for i, u := range units {
		if u >= 0 && int(u) < len(strs) && strs[u] == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample column (not a CPU profile)")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a CPU value")
		}
		ps := profSample{nanos: s.values[valueIdx]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				name := ""
				if si, ok := funcNames[fid]; ok && si >= 0 && int(si) < len(strs) {
					name = strs[si]
				}
				ps.stack = append(ps.stack, name)
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks the top-level fields of a protobuf message, passing
// each field's number, wire type, varint value (wire type 0) or bytes
// (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field's values, packed (wire
// type 2) or not.
func appendUints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}
