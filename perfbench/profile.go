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

// This file reads the CPU profiles runtime/pprof writes — gzipped
// protocol buffers in the profile.proto schema — with the standard
// library only, and charges each sample's CPU time to a layer.

// layerOf maps a cloudlb/internal package to its layer name; lb and core
// are one layer, the balancing strategies. Packages not listed here
// (metrics, obs, power, stats, elastic, telemetry, ...) count as "other".
var layerOf = map[string]string{
	"sim": "sim", "machine": "machine", "charm": "charm", "apps": "apps",
	"xnet": "xnet", "lb": "lb", "core": "lb", "interfere": "interfere",
	"trace": "trace", "runner": "runner", "experiment": "experiment",
	"service": "service", "service/store": "store",
}

const internalPrefix = "cloudlb/internal/"

// frameLayer returns the layer of one function name, or "" when the
// function is outside the program and the benchmark.
func frameLayer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		// No internal package path has a '.', so the first one ends it.
		if pkg, _, ok := strings.Cut(rest, "."); ok {
			if l, ok := layerOf[pkg]; ok {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// profileLayers decodes one CPU profile and returns CPU seconds per
// layer. Each sample goes to the layer of the innermost frame that is in
// a cloudlb/internal package (or in the benchmark's own code); samples
// with neither — the garbage collector, the scheduler, idle HTTP
// plumbing — go to runtime_gc.
func profileLayers(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	// The CPU time value is the one whose type is "cpu" (nanoseconds).
	valueIdx := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	funcLayer := make(map[uint64]string, len(p.funcs))
	for id, nameIdx := range p.funcs {
		funcLayer[id] = frameLayer(p.str(nameIdx))
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("sample shorter than its sample types")
		}
		layer := "runtime_gc"
	stack:
		// Leaf first; within a location, inlined frames innermost first.
		for _, loc := range s.locs {
			for _, fn := range p.locs[loc] {
				if l := funcLayer[fn]; l != "" {
					layer = l
					break stack
				}
			}
		}
		out[layer] += float64(s.values[valueIdx]) / 1e9
	}
	return out, nil
}

// attributeProfile charges one traced op's profile to the cpu.* metrics.
func (l *layers) attributeProfile(data []byte) error {
	byLayer, err := profileLayers(data)
	if err != nil {
		return err
	}
	for name := range perLayerUnits {
		if layer, ok := strings.CutPrefix(name, "cpu."); ok {
			l.observe(name, byLayer[layer])
		}
	}
	return nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []profSample
	locs        map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]int64    // function id -> string-table index of its name
	strs        []string
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// decodeProfile reads the Profile message fields the attribution needs:
// sample_type (1), sample (2), location (4), function (5), string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 1: // ValueType{type=1, unit=2}
			return eachField(sub, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // Sample{location_id=1, value=2}
			var s profSample
			err := eachField(sub, func(f, w int, v uint64, packed []byte) error {
				switch f {
				case 1:
					return eachVarint(w, v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(w, v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location{id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			err := eachField(sub, func(f, _ int, v uint64, line []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(line, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // Function{id=1, name=2}
			var id uint64
			var name int64
			err := eachField(sub, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	return p, err
}

// eachField walks a protobuf message, calling fn with each field's number
// and wire type, its varint value (wire type 0) or its bytes (wire type 2).
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var (
			v   uint64
			sub []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
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
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint handles a repeated varint field in either encoding: one
// value per field (wire type 0) or packed (wire type 2).
func eachVarint(wire int, v uint64, packed []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}
