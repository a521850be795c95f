package experiments

import (
	"strings"
	"testing"
	"time"

	"nemesis/internal/core"
)

// TestFig7Telemetry runs a shortened Fig. 7 workload with telemetry on and
// checks the acceptance criteria end to end: every domain appears in the
// nemesis-top table with fault activity, periodic snapshots fire, spans
// accumulate with USD hops, and the crosstalk monitor ticks.
func TestFig7Telemetry(t *testing.T) {
	opt := DefaultPagingOptions()
	opt.Measure = 6 * time.Second
	opt.Telemetry = true
	opt.SnapshotEvery = 2 * time.Second
	var snapshots int
	var lastTable string
	opt.OnSnapshot = func(sys *core.System) {
		snapshots++
		var sb strings.Builder
		if err := sys.WriteTopTable(&sb); err != nil {
			t.Fatal(err)
		}
		lastTable = sb.String()
	}
	r, err := RunWarmPaging(opt)
	if err != nil {
		t.Fatal(err)
	}
	if snapshots != 3 {
		t.Fatalf("snapshots = %d, want 3", snapshots)
	}
	for _, d := range r.Sys.Domains() {
		if !strings.Contains(lastTable, d.Name()) {
			t.Fatalf("table missing domain %q:\n%s", d.Name(), lastTable)
		}
		if d.Stats().Faults == 0 {
			t.Fatalf("domain %s recorded no faults", d.Name())
		}
	}
	if r.Sys.Obs.SpanTotal() == 0 {
		t.Fatal("no spans recorded")
	}
	var sawUSD bool
	for _, hs := range r.Sys.Obs.HopSummaries() {
		if hs.Hop == "usd.read" && hs.Count > 0 {
			sawUSD = true
		}
	}
	if !sawUSD {
		t.Fatal("no usd.read hops in summaries")
	}
	if mon := r.Sys.CrosstalkMonitor(); mon == nil || mon.Ticks() == 0 {
		t.Fatal("crosstalk monitor did not run")
	}
}
