package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"nemesis/internal/experiments"
)

func TestCheckFigure(t *testing.T) {
	ms := time.Millisecond
	slices := []time.Duration{50 * ms, 100 * ms, 25 * ms} // admission order
	good := []float64{1.0, 2.02, 0.49}
	if err := checkFigure(7, slices, good); err != nil {
		t.Fatalf("a proportional result was rejected: %v", err)
	}
	// Perturb one application's bandwidth by 15%: beyond Fig. 7's 10%,
	// within Fig. 8's 25%.
	bad := []float64{1.0, 2.02 * 1.15, 0.49}
	if checkFigure(7, slices, bad) == nil {
		t.Error("fig 7 accepted a ratio 15% off")
	}
	if err := checkFigure(8, slices, bad); err != nil {
		t.Errorf("fig 8 rejected a ratio 15%% off: %v", err)
	}
	if checkFigure(8, slices, []float64{1.0, 2.02 * 1.3, 0.49}) == nil {
		t.Error("fig 8 accepted a ratio 30% off")
	}
	if checkFigure(7, slices, []float64{1.0, 2.0, 0}) == nil {
		t.Error("an application with no bandwidth was accepted")
	}
	if checkFigure(7, slices, good[:2]) == nil {
		t.Error("a result missing an application was accepted")
	}
}

func TestQoSShareErr(t *testing.T) {
	ms := time.Millisecond
	slices := []time.Duration{25 * ms, 50 * ms, 100 * ms}
	if got := qosShareErr(slices, []float64{1, 2, 4}); got > 1e-12 {
		t.Errorf("exact shares give error %v", got)
	}
	// app1 gets 2/7 of the bandwidth against a 1/7 contract share: 100%.
	if got := qosShareErr(slices, []float64{2, 2, 3}); got < 0.999 || got > 1.001 {
		t.Errorf("doubled share gives error %v, want 1", got)
	}
}

func TestCheckCluster(t *testing.T) {
	good := experiments.ClusterMachine{RemoteReads: 10, RemoteWrites: 12}
	if err := checkCluster(good); err != nil {
		t.Fatalf("a healthy cluster was rejected: %v", err)
	}
	for name, perturb := range map[string]func(*experiments.ClusterMachine){
		"violation": func(m *experiments.ClusterMachine) { m.Violations = 1 },
		"kill":      func(m *experiments.ClusterMachine) { m.Kills = 1 },
		"no reads":  func(m *experiments.ClusterMachine) { m.RemoteReads = 0 },
		"no writes": func(m *experiments.ClusterMachine) { m.RemoteWrites = 0 },
	} {
		m := good
		perturb(&m)
		if checkCluster(m) == nil {
			t.Errorf("cluster with a %s was accepted", name)
		}
	}
}

func TestByteCheck(t *testing.T) {
	c := byteCheck{}
	if c.check("a", []byte("x")) != nil || c.check("a", []byte("x")) != nil || c.check("b", []byte("y")) != nil {
		t.Fatal("identical answers were rejected")
	}
	if c.check("a", []byte("x ")) == nil {
		t.Error("two different answers for one spec were accepted")
	}
}

// fakeWorkload returns canned results: digests[i] for the i-th run.
func fakeWorkload(digests ...string) *workload {
	n := 0
	return &workload{
		name: "fake", inputs: 1,
		run: func(int64, int, bool) *runResult {
			d := digests[min(n, len(digests)-1)]
			n++
			return &runResult{m: map[string]float64{"run_s": 1}, digest: d, ops: 1}
		},
	}
}

func TestMeasureRejectsIrreproducibleOutput(t *testing.T) {
	b := measure(fakeWorkload("aa", "aa", "bb"), 1, time.Now(), 3, false, digests{}, "")
	if b.attempted != 3 || b.failed != 1 {
		t.Errorf("attempted %d, failed %d; want 3, 1 (the run whose digest changed)", b.attempted, b.failed)
	}
	b = measure(fakeWorkload("aa"), defaultSeed, time.Now(), 2, false, digests{}, "cc")
	if b.failed != 1 {
		t.Errorf("a digest differing from the recorded baseline failed %d runs, want 1", b.failed)
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
