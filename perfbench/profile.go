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

// The CPU profile of a traced run is folded by layer from outside: each
// sample is charged to the innermost frame that belongs to a layer's
// package. Runtime, reflect and other standard-library frames are charged
// to the layer that called them (a memmove inside MakeDiff is mem work),
// except that samples in the garbage collector's workers and assists go
// to gc, and samples inside a system call go to syscall. Samples with no
// layer frame at all (the scheduler, the benchmark's own bookkeeping) are
// other.

// cpuLayers are the reported shares, in output order.
var cpuLayers = []string{"core", "mem", "sim", "tcp", "gob", "kv", "app", "gc", "syscall", "other"}

// layerOfPackage maps import paths to layers.
var layerOfPackage = map[string]string{
	"adsm":                        "core",
	"adsm/internal/core":          "core",
	"adsm/internal/vc":            "core",
	"adsm/internal/stats":         "core",
	"adsm/internal/diag":          "core",
	"adsm/internal/mem":           "mem",
	"adsm/internal/sim":           "sim",
	"adsm/internal/transport":     "tcp",
	"adsm/internal/transport/tcp": "tcp",
	"net":                         "tcp",
	"encoding/gob":                "gob",
	"adsm/internal/kv":            "kv",
	"adsm/internal/apps":          "app",
	"adsm/internal/harness":       "app",
}

var syscallPackages = map[string]bool{
	"syscall":                  true,
	"internal/poll":            true,
	"internal/runtime/syscall": true,
}

// gcFrame reports whether a runtime function is garbage-collector work.
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.GC"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbol name such as
// "adsm/internal/core.(*Node).Acquire" or "adsm.Shared[go.shape.uint64].Span".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// classify charges one stack, innermost frame first, to a layer.
func classify(stack []string) string {
	for _, fn := range stack {
		if gcFrame(fn) {
			return "gc"
		}
	}
	for _, fn := range stack {
		if syscallPackages[funcPackage(fn)] {
			return "syscall"
		}
	}
	for _, fn := range stack {
		if l, ok := layerOfPackage[funcPackage(fn)]; ok {
			return l
		}
	}
	return "other"
}

// cpuShares counts profile samples per layer.
type cpuShares map[string]int64

func (s *cpuShares) add(o cpuShares) {
	if *s == nil {
		*s = cpuShares{}
	}
	for k, v := range o {
		(*s)[k] += v
	}
}

// pct is the layer's share of all samples, in percent.
func (s cpuShares) pct(layer string) float64 {
	var total int64
	for _, v := range s {
		total += v
	}
	if total == 0 {
		return 0
	}
	return float64(s[layer]) * 100 / float64(total)
}

// foldProfile decodes a gzipped pprof profile, as runtime/pprof writes it,
// and counts its samples per layer. It reads only the fields it needs:
// samples (location ids and the sample count), locations (their lines'
// function ids, innermost first), functions (name) and the string table.
func foldProfile(gz []byte) (cpuShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2:
					values, err = appendVarints(values, v, b)
				}
				return err
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := cpuShares{}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		out[classify(stack)] += s.count
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks the protobuf message b, calling fn for each field with its
// number and either its varint value or, for length-delimited fields, its
// bytes. Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, v, body := int(key>>3), uint64(0), []byte(nil)
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
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
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one value when
// the field was written unpacked, or the packed run in b.
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
