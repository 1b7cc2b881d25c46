// Pipeline builds a miniature deterministic sensing pipeline with the
// DEAR framework — the same pattern as the paper's brake assistant, in
// ~150 lines: a sensor SWC publishes tagged measurements through a server
// event transactor; a controller SWC consumes them through a client event
// transactor, processes each exactly once in tag order, and reports.
//
// The physical world (sensor timing, network latency) is jittery, yet the
// controller's view is reproducible: run with different -seed values and
// observe identical processed sequences.
//
// Run with:
//
//	go run ./examples/pipeline [-seed N]
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"

	dear "repro"
)

var sensorIface = &dear.ServiceInterface{
	Name:  "Sensor",
	ID:    0x4001,
	Major: 1,
	Events: []dear.EventSpec{
		{ID: dear.EventID(1), Name: "measurement", Eventgroup: 1},
	},
}

func main() {
	seed := flag.Uint64("seed", 1, "physical-world seed")
	flag.Parse()

	k := dear.NewKernel(*seed)
	net := dear.NewNetwork(k, dear.NetworkConfig{
		// A jittery link — physical nondeterminism the pipeline must hide.
		DefaultLatency: &dear.JitterLatency{
			Base:  dear.Duration(200 * dear.Microsecond),
			Sigma: dear.Duration(300 * dear.Microsecond),
			Max:   dear.Duration(2 * dear.Millisecond),
			Rng:   k.Rand("link"),
		},
	})
	ecu1 := net.AddHost("sensor-ecu", k.NewLocalClock(dear.ClockConfig{}, nil))
	ecu2 := net.AddHost("control-ecu", k.NewLocalClock(dear.ClockConfig{}, nil))

	// Timing contract: sensor deadline 2ms, worst-case latency 5ms.
	tcfg := dear.TransactorConfig{
		Deadline: dear.Duration(2 * dear.Millisecond),
		Link:     dear.LinkConfig{Latency: dear.Duration(5 * dear.Millisecond)},
	}
	horizon := dear.Duration(3 * dear.Second)

	// --- Sensor SWC on ECU 1.
	sensor, err := dear.NewSWC(ecu1, dear.RuntimeConfig{Name: "sensor"})
	if err != nil {
		log.Fatal(err)
	}
	sensor.Start(horizon, func(env *dear.Environment) error {
		sk, err := sensor.Runtime().NewSkeleton(sensorIface, 1)
		if err != nil {
			return err
		}
		set, err := dear.NewServerEventTransactor(env, sensor, sk, "measurement", tcfg)
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		out := dear.NewOutputPort[[]byte](logic, "out")
		dear.Connect(out, set.In)
		// Sample every 100ms of logical time, starting after discovery.
		timer := dear.NewTimer(logic, "sample", dear.Duration(300*dear.Millisecond), dear.Duration(100*dear.Millisecond))
		n := uint32(0)
		logic.AddReaction("sample").Triggers(timer).Effects(out).Do(func(c *dear.ReactionCtx) {
			n++
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], n*n) // the "measurement"
			out.Set(c, b[:])
		})
		sk.Offer()
		return nil
	})

	// --- Controller SWC on ECU 2.
	controller, err := dear.NewSWC(ecu2, dear.RuntimeConfig{Name: "controller"})
	if err != nil {
		log.Fatal(err)
	}
	var processed []uint32
	var tags []dear.Tag
	controller.Start(horizon, func(env *dear.Environment) error {
		cet, err := dear.NewClientEventTransactor(env, controller, sensorIface, 1, "measurement", tcfg)
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		in := dear.NewInputPort[[]byte](logic, "in")
		dear.Connect(cet.Out, in)
		logic.AddReaction("consume").Triggers(in).Do(func(c *dear.ReactionCtx) {
			payload, _ := in.Get(c)
			v := binary.BigEndian.Uint32(payload)
			processed = append(processed, v)
			tags = append(tags, c.Tag())
		})
		return nil
	})

	k.Run(dear.Time(horizon) + dear.Time(dear.Second))

	fmt.Printf("seed %d: controller processed %d measurements, in tag order:\n", *seed, len(processed))
	for i, v := range processed {
		if i < 5 || i >= len(processed)-2 {
			fmt.Printf("  tag %-16v value %d\n", tags[i], v)
		} else if i == 5 {
			fmt.Println("  ...")
		}
	}
	fmt.Println("\nRe-run with a different -seed: the physical timing changes,")
	fmt.Println("the processed values and their ORDER do not — that is DEAR.")
}
