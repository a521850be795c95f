package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"nemesis/internal/experiments"
)

// Output checks. A run that fails one counts as failed; the benchmark never
// reports a figure from a run whose output is wrong.

// figTolerance is the allowed deviation of each consecutive bandwidth ratio
// from its slice ratio. The figure tests accept 1.8-2.2 (Fig. 7) and
// 1.5-2.5 (Fig. 8) around the paper's 2x ladder: ±10% and ±25%.
func figTolerance(fig int) float64 {
	if fig == 8 {
		return 0.25
	}
	return 0.10
}

// checkFigure verifies that each application's sustained bandwidth stands
// to that of the application with the next smaller slice as their slices
// do, within the figure's tolerance. slices and mbps are in admission order.
func checkFigure(fig int, slices []time.Duration, mbps []float64) error {
	if len(mbps) != len(slices) {
		return fmt.Errorf("fig %d: %d bandwidths for %d applications", fig, len(mbps), len(slices))
	}
	order := make([]int, len(slices))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return slices[order[a]] < slices[order[b]] })
	tol := figTolerance(fig)
	for k := 1; k < len(order); k++ {
		lo, hi := order[k-1], order[k]
		if mbps[lo] <= 0 {
			return fmt.Errorf("fig %d: app%d sustained no bandwidth", fig, lo+1)
		}
		got := mbps[hi] / mbps[lo]
		want := float64(slices[hi]) / float64(slices[lo])
		if q := got / want; math.Abs(q-1) > tol || math.IsNaN(q) {
			return fmt.Errorf("fig %d: app%d/app%d bandwidth ratio %.3f, slice ratio %.3f (off by more than %.0f%%)",
				fig, hi+1, lo+1, got, want, 100*tol)
		}
	}
	return nil
}

// qosShareErr is the largest relative gap between an application's share
// of the delivered bandwidth and its share of the contracted slices.
func qosShareErr(slices []time.Duration, mbps []float64) float64 {
	var sumS time.Duration
	var sumB float64
	for i := range slices {
		sumS += slices[i]
		sumB += mbps[i]
	}
	worst := 0.0
	if sumS <= 0 || sumB <= 0 {
		return math.Inf(1)
	}
	for i := range slices {
		want := float64(slices[i]) / float64(sumS)
		worst = max(worst, math.Abs(mbps[i]/sumB-want)/want)
	}
	return worst
}

// checkCluster verifies the cluster's invariants: no guarantee violated, no
// domain killed by revocation, and swap traffic in both directions.
func checkCluster(t experiments.ClusterMachine) error {
	switch {
	case t.Violations != 0:
		return fmt.Errorf("cluster: %d guarantee violations", t.Violations)
	case t.Kills != 0:
		return fmt.Errorf("cluster: %d revocation kills", t.Kills)
	case t.RemoteReads == 0 || t.RemoteWrites == 0:
		return fmt.Errorf("cluster: remote reads %d, writes %d (both must flow)", t.RemoteReads, t.RemoteWrites)
	}
	return nil
}

// byteCheck verifies that every answer for one spec is the same bytes.
type byteCheck map[string][]byte

func (c byteCheck) check(key string, body []byte) error {
	prev, ok := c[key]
	if !ok {
		c[key] = body
		return nil
	}
	if !bytes.Equal(prev, body) {
		return fmt.Errorf("serve: two answers for %s differ (%d vs %d bytes)", key, len(prev), len(body))
	}
	return nil
}
