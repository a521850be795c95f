package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestDurationUnmarshalFormats(t *testing.T) {
	// One second, spelled three ways, must decode identically — that is
	// what makes duration spelling irrelevant to a spec's content hash.
	for _, raw := range []string{`"1s"`, `"1000ms"`, `1000000000`} {
		var d Duration
		if err := json.Unmarshal([]byte(raw), &d); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		if d.D() != time.Second {
			t.Errorf("%s decoded to %v, want 1s", raw, d.D())
		}
	}
	b, err := json.Marshal(Duration(90 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Errorf("marshal = %s, want \"1m30s\" (canonical duration string)", b)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`true`), &d); err == nil {
		t.Error("bool unmarshalled into a Duration without error")
	}
}

func TestNormalizeMakesDefaultsExplicit(t *testing.T) {
	implicit := Spec{Kind: KindFigure, Figure: 7}
	explicit := Spec{Kind: KindFigure, Figure: 7, Measure: Duration(40 * time.Second), Seed: 1}
	for _, s := range []*Spec{&implicit, &explicit} {
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	bi, _ := json.Marshal(implicit)
	be, _ := json.Marshal(explicit)
	if !bytes.Equal(bi, be) {
		t.Errorf("default-vs-explicit specs normalize differently:\n%s\n%s", bi, be)
	}

	cluster := Spec{Kind: KindCluster}
	if err := cluster.Normalize(); err != nil {
		t.Fatal(err)
	}
	d := DefaultClusterOptions()
	if cluster.Machines != d.Machines || cluster.DomainsPerMachine != d.DomainsPerMachine ||
		cluster.Servers != d.Servers || cluster.Measure.D() != d.Measure || cluster.Seed != d.Seed {
		t.Errorf("cluster normalize = %+v, want defaults %+v", cluster, d)
	}
}

func TestNormalizeClearsIrrelevantFields(t *testing.T) {
	// A suite spec carrying cluster/figure noise must canonicalize to the
	// same bytes as a clean one: the noise cannot fragment the cache.
	noisy := Spec{Kind: KindSuite, Figure: 8, Seed: 42, Machines: 9, Hog: true, Losses: []float64{0.5}}
	clean := Spec{Kind: KindSuite}
	for _, s := range []*Spec{&noisy, &clean} {
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	bn, _ := json.Marshal(noisy)
	bc, _ := json.Marshal(clean)
	if !bytes.Equal(bn, bc) {
		t.Errorf("irrelevant fields survived normalization:\n%s\n%s", bn, bc)
	}
}

func TestNormalizeRejectsInvalidSpecs(t *testing.T) {
	bad := []Spec{
		{},
		{Kind: "warp"},
		{Kind: KindFigure, Figure: 5},
		{Kind: KindAttribution, Figure: 9},
		{Kind: KindNetswap, Losses: []float64{1.5}},
		{Kind: KindNetswap, Latencies: []Duration{Duration(-time.Second)}},
		{Kind: KindSuite, Measure: Duration(time.Hour)},
		{Kind: KindCluster, Machines: 1000},
	}
	for _, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("spec %+v normalized without error", s)
		}
	}
}

// TestNormalizeNamesNegativeDuration: a negative duration is an error
// naming its field, never silently replaced by the kind's default.
func TestNormalizeNamesNegativeDuration(t *testing.T) {
	for _, tc := range []struct {
		spec  Spec
		field string
	}{
		{Spec{Kind: KindFigure, Figure: 7, Measure: Duration(-5 * time.Second)}, `"measure"`},
		{Spec{Kind: KindCluster, Measure: Duration(-time.Nanosecond)}, `"measure"`},
		{Spec{Kind: KindNetswap, Latencies: []Duration{Duration(-time.Millisecond)}}, `"latencies"`},
	} {
		err := tc.spec.Normalize()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("spec %+v: error %v, want one naming %s", tc.spec, err, tc.field)
		}
	}
}

func TestNormalizeNamesNegativeCount(t *testing.T) {
	for _, tc := range []struct {
		spec  Spec
		field string
	}{
		{Spec{Kind: KindFigure, Figure: 7, Seed: -1}, `"seed"`},
		{Spec{Kind: KindAttribution, Seed: -3}, `"seed"`},
		{Spec{Kind: KindCluster, Seed: -1}, `"seed"`},
		{Spec{Kind: KindCluster, Machines: -2}, `"machines"`},
		{Spec{Kind: KindCluster, DomainsPerMachine: -250}, `"domains_per_machine"`},
		{Spec{Kind: KindCluster, Servers: -1}, `"servers"`},
		// A field the kind ignores is still rejected rather than cleared.
		{Spec{Kind: KindSuite, Machines: -1}, `"machines"`},
	} {
		err := tc.spec.Normalize()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("spec %+v: error %v, want one naming %s", tc.spec, err, tc.field)
		}
	}
	// Zero still means the default.
	zero := Spec{Kind: KindCluster}
	if err := zero.Normalize(); err != nil {
		t.Fatal(err)
	}
	if zero.Seed <= 0 || zero.Machines <= 0 || zero.DomainsPerMachine <= 0 || zero.Servers <= 0 {
		t.Errorf("zero cluster spec normalized to %+v, want positive defaults", zero)
	}
}

func TestRunSpecNetswapDeterministicAcrossWorkers(t *testing.T) {
	spec := Spec{
		Kind:      KindNetswap,
		Latencies: []Duration{Duration(200 * time.Microsecond), Duration(time.Millisecond)},
		Losses:    []float64{0, 0.05},
		Measure:   Duration(100 * time.Millisecond),
	}
	var bodies [][]byte
	for _, workers := range []int{1, 4} {
		out, err := RunSpec(context.Background(), spec, workers)
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.Netswap == nil || len(out.Result.Netswap.Cells) != 4 {
			t.Fatalf("workers=%d: netswap result missing or wrong size: %+v", workers, out.Result.Netswap)
		}
		body, err := EncodeResult(out.Result)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("result bytes differ across worker counts:\n%s\n%s", bodies[0], bodies[1])
	}
}

func TestRunSpecFigureTraceArtifacts(t *testing.T) {
	spec := Spec{Kind: KindFigure, Figure: 8, Measure: Duration(2 * time.Second), Trace: true}
	out, err := RunSpec(context.Background(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Figure == nil || len(out.Result.Figure.MeanMbps) == 0 {
		t.Fatalf("figure summary missing: %+v", out.Result.Figure)
	}
	if len(out.Trace) == 0 {
		t.Error("trace artifact empty despite Trace: true")
	}
	if len(out.Audit) == 0 {
		t.Error("audit artifact empty despite Trace: true")
	}
	var events []any
	if err := json.Unmarshal(out.Audit, &events); err != nil {
		t.Errorf("audit artifact is not a JSON array: %v", err)
	}
	// The traced figs 7/8 run includes the deterministic revocation
	// episode, so the audit log cannot be empty.
	if len(events) == 0 {
		t.Error("audit artifact has no events; expected the revocation episode")
	}
}

// TestRunSpecFig9TraceObserveOnly: tracing a Fig. 9 spec adds artifacts
// and nothing else — the summary is the untraced spec's.
func TestRunSpecFig9TraceObserveOnly(t *testing.T) {
	var sums []*FigureSummary
	for _, traced := range []bool{false, true} {
		spec := Spec{Kind: KindFigure, Figure: 9, Measure: Duration(6 * time.Second), Trace: traced}
		out, err := RunSpec(context.Background(), spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if traced && len(out.Trace) == 0 {
			t.Error("trace artifact empty despite Trace: true")
		}
		sums = append(sums, out.Result.Figure)
	}
	if sums[0].ContendedMbps <= 0 {
		t.Fatalf("untraced summary %+v, want a positive contended reading", sums[0])
	}
	if !reflect.DeepEqual(sums[0], sums[1]) {
		t.Errorf("summary: untraced %+v, traced %+v", sums[0], sums[1])
	}
}

func TestRunSpecCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSpec(ctx, Spec{Kind: KindSuite}, 2); err == nil {
		t.Error("pre-cancelled RunSpec returned no error")
	}
}
