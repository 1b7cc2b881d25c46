// Distributed demonstrates PTIDES-style safe-to-process coordination
// across platforms with imperfect clocks: two sender SWCs on different
// ECUs (with drifting, periodically synchronized clocks) publish events
// to one consumer, which must handle all of them in tag order.
//
// The receiving transactors delay each message to tag + L + E, where L is
// the worst-case network latency and E the clock synchronization bound —
// the condition under which no earlier-tagged message can still arrive.
// The example also shows what happens when the bound is violated: the
// violation is *detected and counted*, never silent.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	dear "repro"
)

func sensorIface(id dear.ServiceID, name string) *dear.ServiceInterface {
	return &dear.ServiceInterface{
		Name:  name,
		ID:    id,
		Major: 1,
		Events: []dear.EventSpec{
			{ID: dear.EventID(1), Name: "data", Eventgroup: 1},
		},
	}
}

var (
	leftIface  = sensorIface(0x5001, "LeftRadar")
	rightIface = sensorIface(0x5002, "RightRadar")
)

func main() {
	k := dear.NewKernel(7)
	net := dear.NewNetwork(k, dear.NetworkConfig{
		DefaultLatency: &dear.JitterLatency{
			Base:  dear.Duration(300 * dear.Microsecond),
			Sigma: dear.Duration(500 * dear.Microsecond),
			Max:   dear.Duration(3 * dear.Millisecond),
			Rng:   k.Rand("link"),
		},
	})

	// Three ECUs with drifting clocks, synchronized to within E=1ms.
	clockFor := func(name string, drift int64) *dear.LocalClock {
		return k.NewLocalClock(dear.ClockConfig{
			DriftPPB:   drift,
			SyncBound:  dear.Duration(dear.Millisecond),
			SyncPeriod: dear.Duration(500 * dear.Millisecond),
		}, k.Rand("sync."+name))
	}
	ecuL := net.AddHost("ecu-left", clockFor("left", 30_000))
	ecuR := net.AddHost("ecu-right", clockFor("right", -20_000))
	ecuC := net.AddHost("ecu-fusion", clockFor("fusion", 10_000))

	// Honest bounds: L=5ms >> actual ~3ms max, E=1ms (the sync bound).
	tcfg := dear.TransactorConfig{
		Deadline: dear.Duration(2 * dear.Millisecond),
		Link: dear.LinkConfig{
			Latency:    dear.Duration(5 * dear.Millisecond),
			ClockError: dear.Duration(dear.Millisecond),
		},
	}
	horizon := dear.Duration(3 * dear.Second)

	mkSensor := func(host *dear.Host, name string, iface *dear.ServiceInterface, phase dear.Duration) {
		swc, err := dear.NewSWC(host, dear.RuntimeConfig{Name: name})
		if err != nil {
			log.Fatal(err)
		}
		swc.Start(horizon, func(env *dear.Environment) error {
			sk, err := swc.Runtime().NewSkeleton(iface, 1)
			if err != nil {
				return err
			}
			set, err := dear.NewServerEventTransactor(env, swc, sk, "data", tcfg)
			if err != nil {
				return err
			}
			logic := env.NewReactor("logic")
			out := dear.NewOutputPort[[]byte](logic, "out")
			dear.Connect(out, set.In)
			timer := dear.NewTimer(logic, "t", dear.Duration(400*dear.Millisecond)+phase, dear.Duration(50*dear.Millisecond))
			n := uint32(0)
			logic.AddReaction("emit").Triggers(timer).Effects(out).Do(func(c *dear.ReactionCtx) {
				n++
				var b [4]byte
				binary.BigEndian.PutUint32(b[:], n)
				out.Set(c, b[:])
			})
			sk.Offer()
			return nil
		})
	}
	mkSensor(ecuL, "left-radar", leftIface, 0)
	mkSensor(ecuR, "right-radar", rightIface, dear.Duration(7*dear.Millisecond))

	// --- Fusion SWC subscribes to both radars.
	fusion, err := dear.NewSWC(ecuC, dear.RuntimeConfig{Name: "fusion"})
	if err != nil {
		log.Fatal(err)
	}
	type rx struct {
		src string
		val uint32
		tag dear.Tag
	}
	var received []rx
	var cetL, cetR *dear.ClientEventTransactor
	fusion.Start(horizon, func(env *dear.Environment) error {
		var err error
		cetL, err = dear.NewClientEventTransactor(env, fusion, leftIface, 1, "data", tcfg)
		if err != nil {
			return err
		}
		cetR, err = dear.NewClientEventTransactor(env, fusion, rightIface, 1, "data", tcfg)
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		inL := dear.NewInputPort[[]byte](logic, "left")
		inR := dear.NewInputPort[[]byte](logic, "right")
		dear.Connect(cetL.Out, inL)
		dear.Connect(cetR.Out, inR)
		logic.AddReaction("fuse").Triggers(inL, inR).Do(func(c *dear.ReactionCtx) {
			if v, ok := inL.Get(c); ok {
				received = append(received, rx{"left ", binary.BigEndian.Uint32(v), c.Tag()})
			}
			if v, ok := inR.Get(c); ok {
				received = append(received, rx{"right", binary.BigEndian.Uint32(v), c.Tag()})
			}
		})
		return nil
	})

	k.Run(dear.Time(horizon) + dear.Time(dear.Second))

	fmt.Printf("fusion handled %d events, all in tag order:\n", len(received))
	last := dear.Tag{}
	ordered := true
	for i, r := range received {
		if r.tag.Before(last) {
			ordered = false
		}
		last = r.tag
		if i < 6 || i >= len(received)-2 {
			fmt.Printf("  %s #%-3d at tag %v\n", r.src, r.val, r.tag)
		} else if i == 6 {
			fmt.Println("  ...")
		}
	}
	fmt.Printf("tag order preserved: %v\n", ordered)
	fmt.Printf("safe-to-process violations: left=%d right=%d (bounds were honest)\n",
		cetL.Stats().SafeToProcessViolations, cetR.Stats().SafeToProcessViolations)
	fmt.Println("\nEach event was handled at tag t+D+L+E — after the physical-time")
	fmt.Println("barrier guaranteed no earlier-tagged message could still arrive.")
}
