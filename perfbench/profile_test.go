package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf writer for canned profiles.
type pb struct{ bytes.Buffer }

func (p *pb) varint(num int, v uint64) {
	p.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	p.Write(binary.AppendUvarint(nil, v))
}

func (p *pb) bytesField(num int, b []byte) {
	p.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	p.Write(binary.AppendUvarint(nil, uint64(len(b))))
	p.Write(b)
}

func (p *pb) packed(num int, vs ...uint64) {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	p.bytesField(num, b)
}

// cannedProfile builds a gzipped profile with one function per location
// except location 9, which carries an inlined pair (innermost first).
func cannedProfile(t *testing.T, samples map[int64][]uint64) []byte {
	t.Helper()
	strs := []string{"",
		"nemesis/internal/sim.(*Simulator).step", // 1
		"runtime.chansend",                       // 2
		"nemesis/internal/experiments/sweep.MapWorkers[go.shape.int,go.shape.*uint8]", // 3
		"runtime.gcBgMarkWorker", // 4
		"runtime.schedule",       // 5
		"runtime.mcall",          // 6
		"main.main",              // 7
		"nemesis/internal/obs.(*Registry).StartSpan.func1", // 8
	}
	var prof pb
	for count, locs := range samples {
		var s pb
		s.packed(1, locs...)
		s.packed(2, uint64(count), uint64(count)*1e7)
		prof.bytesField(2, s.Bytes())
	}
	// Location id n calls function id n; location 9 inlines fn 2 into fn 8.
	for id := uint64(1); id <= 8; id++ {
		var loc, line pb
		loc.varint(1, id)
		line.varint(1, id)
		loc.bytesField(4, line.Bytes())
		prof.bytesField(4, loc.Bytes())
	}
	var loc9, l1, l2 pb
	loc9.varint(1, 9)
	l1.varint(1, 2)
	l2.varint(1, 8)
	loc9.bytesField(4, l1.Bytes())
	loc9.bytesField(4, l2.Bytes())
	prof.bytesField(4, loc9.Bytes())
	for id := uint64(1); id <= 8; id++ {
		var fn pb
		fn.varint(1, id)
		fn.varint(2, id)
		prof.bytesField(5, fn.Bytes())
	}
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestHostShareBucketing(t *testing.T) {
	raw := cannedProfile(t, map[int64][]uint64{
		5: {2, 1, 7}, // chansend inside sim: charged to sim
		2: {3, 7},    // generic sweep frame: experiments.sweep
		1: {4},       // GC worker
		3: {5, 6},    // scheduler on g0
		4: {9, 1},    // obs frame inlined under chansend, called from sim: obs is innermost
		6: {7},       // the benchmark itself
	})
	stacks, err := decodeProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	shares := hostShares(stacks)
	const total = 21.0
	for bucket, want := range map[string]float64{
		"sim": 5 / total, "experiments.sweep": 2 / total, "obs": 4 / total,
		bucketGC: 1 / total, bucketSched: 3 / total, bucketOther: 6 / total, "disk": 0,
	} {
		if got := shares[bucket]; math.Abs(got-want) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", bucket, got, want)
		}
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"nemesis/internal/sim.(*Proc).start.func1":                                      "sim",
		"nemesis/internal/experiments.RunClusterContext":                                "experiments",
		"nemesis/internal/experiments/sweep.MapForked[go.shape.*nemesis/internal/vm.X]": "experiments.sweep",
		"runtime.mallocgc": "",
		"main.main":        "",
	} {
		got, _ := moduleOf(fn)
		if got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// The decoder must read what the runtime's own profiler writes.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, s := range stacks {
		n += s.Count
		if len(s.Funcs) == 0 {
			t.Fatal("a sample decoded with no frames")
		}
	}
	if n == 0 {
		t.Fatalf("no samples in a 300 ms busy loop (x=%d)", x)
	}
}
