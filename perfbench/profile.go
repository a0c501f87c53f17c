package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// profileBuckets are the profile.*_frac metrics: the share of the traced
// phase's CPU samples whose innermost frame lies in each part of the
// simulator. Samples under the collector's own entry points count as gc
// first, whatever their leaf.
var profileBuckets = []string{"event", "switchcore", "ni", "plan", "routecache", "dset", "mcast", "updown", "topology", "gc"}

// simFileBuckets splits internal/sim by source file. The worm planner's
// routing decisions live in switchcore.go; simPlanFuncs moves them to the
// plan bucket so that switchcore is the flit pipeline alone.
var simFileBuckets = map[string]string{
	"switchcore.go": "switchcore",
	"ni.go":         "ni",
	"plan.go":       "plan",
	"routecache.go": "routecache",
	"dset.go":       "dset",
}

var simPlanFuncs = []string{".plan", ".climb", ".partition"}

// gcRoots are runtime frames under which a sample is collector work.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
}

// frame is one function of a call stack.
type frame struct{ fn, file string }

// bucketOf maps one sample's stack (leaf first) to a bucket, or "".
func bucketOf(stack []frame) string {
	for _, f := range stack {
		if gcRoots[f.fn] {
			return "gc"
		}
	}
	if len(stack) == 0 {
		return ""
	}
	leaf := stack[0]
	pkg := packageOf(leaf.fn)
	switch {
	case pkg == "mcastsim/internal/event":
		return "event"
	case pkg == "mcastsim/internal/sim":
		for _, p := range simPlanFuncs {
			if strings.Contains(leaf.fn, p) {
				return "plan"
			}
		}
		return simFileBuckets[path.Base(leaf.file)]
	case pkg == "mcastsim/internal/mcast" || strings.HasPrefix(pkg, "mcastsim/internal/mcast/"):
		return "mcast"
	case pkg == "mcastsim/internal/updown":
		return "updown"
	case pkg == "mcastsim/internal/topology":
		return "topology"
	}
	return ""
}

// packageOf returns the import path of a fully qualified function name
// such as "mcastsim/internal/sim.(*Network).Drain".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profileFractions decodes a gzipped pprof CPU profile and returns each
// bucket's share of the sampled CPU time.
func profileFractions(gz []byte) (map[string]float64, error) {
	stacks, weights, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(profileBuckets))
	for _, b := range profileBuckets {
		out[b] = 0
	}
	var total float64
	for i, st := range stacks {
		total += weights[i]
		if b := bucketOf(st); b != "" {
			out[b] += weights[i]
		}
	}
	if total > 0 {
		for b := range out {
			out[b] /= total
		}
	}
	return out, nil
}

// decodeProfile reads the parts of profile.proto the buckets need: each
// sample's stack (leaf first, inlined frames expanded) and its last value
// (CPU nanoseconds).
func decodeProfile(gz []byte) ([][]frame, []float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type line struct{ fn uint64 }
	type fnRec struct{ name, file uint64 }
	var (
		samples [][2][]uint64 // location ids, values
		locs    = map[uint64][]line{}
		fns     = map[uint64]fnRec{}
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var ids, vals []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					ids = appendVarints(ids, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			samples = append(samples, [2][]uint64{ids, vals})
			return err
		case 4: // Location
			var id uint64
			var lines []line
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					var l line
					err := eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							l.fn = v
						}
						return nil
					})
					lines = append(lines, l)
					return err
				}
				return nil
			})
			locs[id] = lines
			return err
		case 5: // Function
			var id uint64
			var f fnRec
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			})
			fns[id] = f
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	stacks := make([][]frame, len(samples))
	weights := make([]float64, len(samples))
	for i, s := range samples {
		for _, id := range s[0] {
			for _, l := range locs[id] {
				f := fns[l.fn]
				stacks[i] = append(stacks[i], frame{fn: str(f.name), file: str(f.file)})
			}
		}
		if vals := s[1]; len(vals) > 0 {
			weights[i] = float64(vals[len(vals)-1])
		}
	}
	return stacks, weights, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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
