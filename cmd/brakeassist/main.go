// Command brakeassist runs the APD brake assistant pipeline in either
// implementation and reports the error instrumentation.
//
// Usage:
//
//	brakeassist -mode baseline [-frames N] [-seed S]
//	brakeassist -mode dear     [-frames N] [-seed S] [-deadline-scale X]
//	brakeassist -mode compare  [-frames N] [-seed S]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/apd"
	"repro/internal/logical"
	"repro/internal/metrics"
)

func main() {
	mode := flag.String("mode", "compare", "baseline | dear | compare")
	frames := flag.Int("frames", 10000, "frames to process")
	seed := flag.Uint64("seed", 1, "simulation seed")
	scale := flag.Float64("deadline-scale", 1.0, "DEAR deadline scale factor")
	split := flag.Bool("split", false, "DEAR: deploy CV+EBA on a third platform (drifting synced clocks, E=2.5ms)")
	flag.Parse()

	switch *mode {
	case "baseline":
		runBaseline(*seed, *frames)
	case "dear":
		runDear(*seed, *frames, *scale, *split)
	case "compare":
		runBaseline(*seed, *frames)
		fmt.Println()
		runDear(*seed, *frames, *scale, *split)
	default:
		log.Fatalf("brakeassist: unknown mode %q", *mode)
	}
}

func runBaseline(seed uint64, frames int) {
	b, err := apd.NewBaseline(seed, apd.DefaultBaselineConfig(frames))
	if err != nil {
		log.Fatalf("brakeassist: %v", err)
	}
	c := b.Run()
	fmt.Printf("baseline (stock APD) — %d frames, seed %d\n", frames, seed)
	printCounters(c)
	brakes := 0
	for _, cmd := range b.BrakeSeq {
		if cmd.Brake {
			brakes++
		}
	}
	fmt.Printf("brake activations: %d\n", brakes)
}

func runDear(seed uint64, frames int, scale float64, split bool) {
	cfg := apd.DefaultDeterministicConfig(frames)
	deployment := "single platform (paper)"
	if split {
		cfg = apd.SplitDeterministicConfig(frames)
		deployment = "split across platforms (E=2.5ms)"
	}
	cfg.DeadlineScale = scale
	d, err := apd.NewDeterministic(seed, cfg)
	if err != nil {
		log.Fatalf("brakeassist: %v", err)
	}
	c := d.Run()
	fmt.Printf("deterministic (DEAR) — %d frames, seed %d, deadline scale %.2f, %s\n", frames, seed, scale, deployment)
	printCounters(c)
	lat := metrics.NewStream()
	for _, l := range d.Latencies {
		lat.Add(float64(l))
	}
	brakes := 0
	for _, cmd := range d.BrakeSeq {
		if cmd.Brake {
			brakes++
		}
	}
	fmt.Printf("brake activations: %d\n", brakes)
	if lat.N() > 0 {
		fmt.Printf("end-to-end latency: mean=%v p99=%v max=%v\n",
			logical.Duration(lat.Mean()),
			logical.Duration(lat.Quantile(0.99)),
			logical.Duration(lat.Max()))
	}
}

func printCounters(c *apd.ErrorCounters) {
	t := metrics.NewTable("metric", "count")
	t.Row("frames sent", c.FramesSent)
	t.Row("frames processed", c.FramesProcessed)
	t.Row("dropped frames (Preprocessing)", c.DroppedPre)
	t.Row("dropped frames (Computer Vision)", c.DroppedCV)
	t.Row("input mismatches (Computer Vision)", c.MismatchCV)
	t.Row("dropped vehicles (EBA)", c.DroppedEBA)
	t.Row("deadline violations", c.DeadlineViolations)
	t.Row("safe-to-process violations", c.SafeToProcessViolations)
	fmt.Print(t)
	fmt.Printf("error prevalence: %.3f%%\n", c.Prevalence())
}
