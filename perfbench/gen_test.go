package main

import (
	"reflect"
	"testing"
	"time"
)

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for idx := range 3 {
		if a, b := genFigure(5, 7, time.Minute, idx), genFigure(5, 7, time.Minute, idx); !reflect.DeepEqual(a, b) {
			t.Errorf("fig 7 input %d differs between draws: %v vs %v", idx, a, b)
		}
		if a, b := genCluster(5, idx), genCluster(5, idx); a != b {
			t.Errorf("cluster input %d differs between draws: %v vs %v", idx, a, b)
		}
		if a, b := genServe(5, idx), genServe(5, idx); !reflect.DeepEqual(a, b) {
			t.Errorf("serve input %d differs between draws", idx)
		}
	}
}

func TestGeneratorsSensitiveToSeed(t *testing.T) {
	if reflect.DeepEqual(genFigure(1, 7, time.Minute, 0), genFigure(2, 7, time.Minute, 0)) {
		t.Error("fig 7 inputs of seeds 1 and 2 are equal")
	}
	if reflect.DeepEqual(genFigure(1, 7, time.Minute, 0), genFigure(1, 7, time.Minute, 1)) {
		t.Error("fig 7 inputs 0 and 1 of one seed are equal")
	}
	if genCluster(1, 0) == genCluster(2, 0) {
		t.Error("cluster inputs of seeds 1 and 2 are equal")
	}
	if reflect.DeepEqual(genServe(1, 0), genServe(2, 0)) {
		t.Error("serve streams of seeds 1 and 2 are equal")
	}
}

func TestFigureInputShape(t *testing.T) {
	for seed := range int64(50) {
		in := genFigure(seed, 7, 300*time.Second, 0)
		var sum time.Duration
		for _, s := range in.Slices {
			sum += s
		}
		base := sum / 7
		if len(in.Slices) != 3 || base < 18*time.Millisecond || base > 32*time.Millisecond {
			t.Fatalf("seed %d: slices %v are not a doubling ladder on an 18-32 ms base", seed, in.Slices)
		}
		// The window keeps slice-sum × window constant, to the second.
		work := sum.Seconds() * in.Window.Seconds()
		if want := 0.175 * 300; work < want-0.2 || work > want+0.2 {
			t.Fatalf("seed %d: window %v over %v of slices is %.2f slice-seconds, want %.2f", seed, in.Window, sum, work, want)
		}
	}
	if in := genFigure(3, 8, 600*time.Second, 0); !reflect.DeepEqual(in.Slices, paperSlices) || in.Window != 600*time.Second {
		t.Errorf("fig 8 input %v is not the paper's configuration", in)
	}
}

func TestServeStreamComposition(t *testing.T) {
	for seed := range int64(20) {
		reqs := genServe(seed, 0)
		count := map[string]int{}
		first := map[string]int{}
		for i, q := range reqs {
			count[q.Class]++
			key := string(q.Body)
			if q.Class == classRepeat {
				j, ok := first[key]
				if !ok || i-j < 2 {
					t.Fatalf("seed %d: repeat %d of %s does not follow its original by two places", seed, i, key)
				}
				continue
			}
			if _, dup := first[key]; dup {
				t.Fatalf("seed %d: spec %s is not distinct", seed, key)
			}
			first[key] = i
		}
		if count[classPoolable] != 24 || count[classCold] != 8 || count[classRepeat] != serveRepeats {
			t.Fatalf("seed %d: composition %v, want 24 poolable, 8 cold, %d repeats", seed, count, serveRepeats)
		}
	}
}
