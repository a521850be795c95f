// QoS firewalling: the paper's Fig. 7 scenario as an API example. Three
// domains page in from different parts of the same disk under 10%, 20% and
// 40% guarantees; their progress settles at almost exactly 1:2:4 — each is
// isolated from the others' paging behaviour.
package main

import (
	"fmt"
	"log"
	"time"

	"nemesis/internal/experiments"
)

func main() {
	log.SetFlags(0)
	opt := experiments.DefaultPagingOptions()
	opt.Measure = 20 * time.Second

	fmt.Println("running three self-paging domains with 10/20/40% disk guarantees...")
	r, err := experiments.RunWarmPaging(opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nsustained paging-in bandwidth (Mbit/s):")
	for i, pg := range r.Pagers {
		share := 100 * float64(opt.Slices[i]) / float64(opt.Period)
		fmt.Printf("  %-10s (%2.0f%% of disk): %6.2f\n", pg.Cfg.Name, share, r.MeanMbps[i])
	}
	fmt.Printf("\nratios between consecutive domains (contracts say 2.00): ")
	for i, ratio := range r.Ratios() {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%.2f", ratio)
	}
	fmt.Println()

	fmt.Println("\nlaxity kept every workless span within l = 10 ms:")
	max := 0.0
	for _, v := range r.Log.MaxLax() {
		if v > max {
			max = v
		}
	}
	fmt.Printf("  longest lax charge: %.2f ms\n", max*1e3)
}
