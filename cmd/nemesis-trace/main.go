// Command nemesis-trace regenerates the bottom halves of Figs. 7 and 8:
// the detailed USD scheduler trace, as TSV. Each row is one event — a
// transaction (the filled boxes), a lax charge (the solid lines), or a
// periodic allocation (the small arrows) — with client, start, end and
// duration in milliseconds. It runs the same warm+measure world as
// nemesis-paging -fig 7|8, whose top halves it completes.
//
// Usage:
//
//	nemesis-trace -fig 7 -from 2s -window 4s
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"nemesis/internal/experiments"
	"nemesis/internal/sim"
	"nemesis/internal/trace"
)

func main() {
	log.SetFlags(0)
	fig := flag.Int("fig", 7, "experiment whose trace to dump: 7 or 8")
	from := flag.Duration("from", 0, "trace window start, relative to the measured phase")
	window := flag.Duration("window", 4*time.Second, "trace window length (the paper shows 4 s and a 1 s detail)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	opt := experiments.DefaultPagingOptions()
	opt.Seed = *seed
	opt.Measure = *from + *window
	if *fig == 8 {
		opt.Write = true
		opt.Forgetful = true
	} else if *fig != 7 {
		log.Fatalf("nemesis-trace: unknown figure %d", *fig)
	}
	r, err := experiments.RunWarmPaging(opt)
	if err != nil {
		log.Fatalf("nemesis-trace: %v", err)
	}
	start := sim.Time(r.MeasureStart + *from)
	end := start.Add(*window)
	fmt.Printf("# Figure %d scheduler trace, window [%.3fs, %.3fs)\n", *fig, start.Seconds(), end.Seconds())
	sub := &trace.Log{}
	for _, e := range r.Log.Between(start, end) {
		sub.Add(e)
	}
	if err := sub.WriteTSV(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
