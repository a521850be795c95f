// Command nemesis-top runs a paging workload with full fault-path
// telemetry and prints periodic per-domain snapshot tables — a `top` for
// the self-paging machine: faults split by fast/worker path, paging
// traffic, revocations, frames held, and end-to-end page-fault latency
// percentiles, plus any QoS-crosstalk flags the monitor raised.
//
//	-fig 7|8       workload to run (the paper's paging-in / paging-out)
//	-measure 20s   measured window of simulated time
//	-interval 5s   snapshot period (simulated time)
//	-seed 1        simulation seed
//	-spans         also dump the retained span table (per-hop TSV)
//	-metrics       also dump the full metric registry as TSV
//	-json          dump the final top table as JSON (rows + rollup) instead
//	-registry-json dump the full registry snapshot as JSON instead
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"nemesis/internal/core"
	"nemesis/internal/experiments"
)

func main() {
	log.SetFlags(0)
	fig := flag.Int("fig", 7, "workload: 7 (paging in) or 8 (paging out)")
	measure := flag.Duration("measure", 20*time.Second, "measured window of simulated time")
	interval := flag.Duration("interval", 5*time.Second, "snapshot period (simulated time)")
	seed := flag.Int64("seed", 1, "simulation seed")
	spans := flag.Bool("spans", false, "dump per-hop span latency TSV at the end")
	metrics := flag.Bool("metrics", false, "dump the metric registry TSV at the end")
	jsonOut := flag.Bool("json", false, "dump the final top table as JSON (rows + rollup)")
	regJSON := flag.Bool("registry-json", false, "dump the full registry snapshot as JSON")
	flag.Parse()

	opt := experiments.DefaultPagingOptions()
	opt.Measure = *measure
	opt.Seed = *seed
	opt.Telemetry = true
	opt.SnapshotEvery = *interval
	if *fig == 8 {
		opt.Write = true
		opt.Forgetful = true
	} else if *fig != 7 {
		log.Fatalf("nemesis-top: unknown figure %d", *fig)
	}
	if !*jsonOut && !*regJSON {
		opt.OnSnapshot = func(sys *core.System) {
			fmt.Printf("--- t=%.1fs ---\n", sys.Sim.Now().Seconds())
			if err := sys.WriteTopTable(os.Stdout); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
	}

	r, err := experiments.RunWarmPaging(opt)
	if err != nil {
		log.Fatalf("nemesis-top: %v", err)
	}
	sys := r.Sys

	if *jsonOut {
		if err := sys.WriteTopJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *regJSON {
		if err := sys.Obs.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flags := sys.Obs.Flags(); len(flags) > 0 {
		fmt.Printf("# crosstalk flags (%d):\n", len(flags))
		if err := sys.Obs.WriteFlagsTSV(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if *spans {
		fmt.Println("# span hop latency breakdown:")
		if err := sys.Obs.WriteSpansTSV(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if *metrics {
		fmt.Println("# metric registry:")
		if err := sys.Obs.WriteMetricsTSV(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
