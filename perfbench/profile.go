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

// A CPU profile is a gzipped protocol buffer (the pprof profile.proto
// format). The benchmark decodes the few fields it needs itself, so the
// traced run needs neither a non-standard module nor the pprof tool.

// profStack is one sampled call stack, innermost function first.
type profStack struct {
	Funcs []string
	Count int64
}

// decodeProfile returns the stacks of a gzipped CPU profile.
func decodeProfile(gz []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
	)
	err = walkFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			if err := walkFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := walkFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(n int, v uint64, _ []byte) error {
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
			if err := walkFields(b, func(n int, v uint64, _ []byte) error {
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
		return nil, err
	}

	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		st := profStack{Count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					st.Funcs = append(st.Funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated message")

// walkFields calls fn for every field of a protobuf message: v carries
// varint values, b the payload of length-delimited fields.
func walkFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (b set) or not.
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

// Host-share buckets besides the program's modules.
const (
	bucketSched = "runtime.sched"
	bucketGC    = "runtime.gc"
	bucketOther = "other"
)

// modulePrefix is the import-path prefix of the program's layers.
const modulePrefix = "nemesis/internal/"

// hostModules are the layers host time is charged to, named as in the
// metric names ("experiments.sweep" is nemesis/internal/experiments/sweep).
var hostModules = []string{
	"sim", "cpu", "atropos", "mem", "vm", "domain", "stretchdrv", "usd", "sfs",
	"disk", "netswap", "obs", "trace", "core", "experiments", "experiments.sweep",
	"serve", "workload", "fault", "baseline",
}

// moduleOf returns the layer a function belongs to, or false for code
// outside the program's internal packages.
func moduleOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexByte(rest, '['); i >= 0 {
		rest = rest[:i] // generic instantiations may name other packages
	}
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	return strings.ReplaceAll(rest[:slash+1+dot], "/", "."), true
}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.markroot",
}

var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
	"runtime.goschedImpl", "runtime.gosched_m", "runtime.goexit0", "runtime.mstart",
	"runtime.stopm", "runtime.exitsyscall", "runtime.sysmon", "runtime.netpoll",
}

// bucketOf charges a stack to its innermost program frame; stacks with none
// go to the GC workers, the scheduler, or "other" (the benchmark's own code,
// the HTTP client and server plumbing, idle runtime).
func bucketOf(funcs []string) string {
	for _, f := range funcs {
		if m, ok := moduleOf(f); ok {
			return m
		}
	}
	has := func(names []string) bool {
		for _, f := range funcs {
			for _, n := range names {
				if f == n {
					return true
				}
			}
		}
		return false
	}
	switch {
	case has(gcFrames):
		return bucketGC
	case has(schedFrames):
		return bucketSched
	}
	return bucketOther
}

// hostShares charges every sample to its bucket and returns each bucket's
// share of all samples, with every known bucket present.
func hostShares(stacks []profStack) map[string]float64 {
	shares := map[string]float64{bucketSched: 0, bucketGC: 0, bucketOther: 0}
	for _, m := range hostModules {
		shares[m] = 0
	}
	var total int64
	for _, s := range stacks {
		b := bucketOf(s.Funcs)
		if _, known := shares[b]; !known {
			b = bucketOther // a package added after this list was written
		}
		shares[b] += float64(s.Count)
		total += s.Count
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= float64(total)
		}
	}
	return shares
}

// shareMetric names a bucket's metric: "<module>.host_share", and
// "runtime.sched_share" / "runtime.gc_share" for the runtime buckets.
func shareMetric(bucket string) string {
	switch bucket {
	case bucketSched:
		return "runtime.sched_share"
	case bucketGC:
		return "runtime.gc_share"
	}
	return bucket + ".host_share"
}
