package dear_test

// Integration tests exercising the public facade exactly as a downstream
// user would: assembling reactor programs, DEAR software components and
// simulated deployments through the root package only.

import (
	"encoding/binary"
	"testing"

	dear "repro"
)

func TestFacadeQuickstartProgram(t *testing.T) {
	env := dear.NewEnvironment(dear.Options{Fast: true, Timeout: dear.Duration(500 * dear.Millisecond)})
	src := env.NewReactor("src")
	sink := env.NewReactor("sink")
	out := dear.NewOutputPort[int](src, "out")
	in := dear.NewInputPort[int](sink, "in")
	dear.Connect(out, in)
	tick := dear.NewTimer(src, "tick", 0, dear.Duration(100*dear.Millisecond))
	sent := 0
	src.AddReaction("emit").Triggers(tick).Effects(out).Do(func(c *dear.ReactionCtx) {
		sent++
		out.Set(c, sent)
	})
	var got []int
	sink.AddReaction("recv").Triggers(in).Do(func(c *dear.ReactionCtx) {
		v, _ := in.Get(c)
		got = append(got, v)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 { // 0..500ms inclusive
		t.Errorf("received %d values: %v", len(got), got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Errorf("got[%d] = %d", i, v)
		}
	}
}

func TestFacadeSimulatedDeployment(t *testing.T) {
	k := dear.NewKernel(5)
	net := dear.NewNetwork(k, dear.NetworkConfig{})
	h1 := net.AddHost("a", k.NewLocalClock(dear.ClockConfig{}, nil))
	h2 := net.AddHost("b", k.NewLocalClock(dear.ClockConfig{}, nil))

	iface := &dear.ServiceInterface{
		Name:  "Ping",
		ID:    0x6001,
		Major: 1,
		Methods: []dear.MethodSpec{
			{ID: 1, Name: "ping"},
		},
	}
	server, err := dear.NewRuntime(h1, dear.RuntimeConfig{Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	client, err := dear.NewRuntime(h2, dear.RuntimeConfig{Name: "client"})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := server.NewSkeleton(iface, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.Handle("ping", func(c *dear.HandlerCtx, args []byte) ([]byte, error) {
		return append([]byte("pong:"), args...), nil
	}); err != nil {
		t.Fatal(err)
	}
	k.At(0, func() { sk.Offer() })

	var reply []byte
	client.Spawn("main", func(c *dear.HandlerCtx) {
		px, err := client.FindServiceSync(c.Process(), iface, 1, dear.Duration(dear.Second))
		if err != nil {
			t.Error(err)
			return
		}
		reply, err = px.Call("ping", []byte("x")).Get(c.Process())
		if err != nil {
			t.Error(err)
		}
	})
	k.Run(dear.Time(5 * dear.Second))
	if string(reply) != "pong:x" {
		t.Errorf("reply = %q", reply)
	}
}

func TestFacadeDearPipelineDeterministic(t *testing.T) {
	// Build the examples/pipeline scenario through the facade and verify
	// the controller's view is identical across physical seeds.
	iface := &dear.ServiceInterface{
		Name:  "Sensor",
		ID:    0x6101,
		Major: 1,
		Events: []dear.EventSpec{
			{ID: dear.EventID(1), Name: "m", Eventgroup: 1},
		},
	}
	run := func(seed uint64) []uint32 {
		k := dear.NewKernel(seed)
		net := dear.NewNetwork(k, dear.NetworkConfig{
			DefaultLatency: &dear.JitterLatency{
				Base:  dear.Duration(200 * dear.Microsecond),
				Sigma: dear.Duration(400 * dear.Microsecond),
				Max:   dear.Duration(3 * dear.Millisecond),
				Rng:   k.Rand("link"),
			},
		})
		e1 := net.AddHost("e1", k.NewLocalClock(dear.ClockConfig{}, nil))
		e2 := net.AddHost("e2", k.NewLocalClock(dear.ClockConfig{}, nil))
		tcfg := dear.TransactorConfig{
			Deadline: dear.Duration(2 * dear.Millisecond),
			Link:     dear.LinkConfig{Latency: dear.Duration(5 * dear.Millisecond)},
		}
		horizon := dear.Duration(2 * dear.Second)

		sensor, err := dear.NewSWC(e1, dear.RuntimeConfig{Name: "sensor"})
		if err != nil {
			t.Fatal(err)
		}
		sensor.Start(horizon, func(env *dear.Environment) error {
			sk, err := sensor.Runtime().NewSkeleton(iface, 1)
			if err != nil {
				return err
			}
			set, err := dear.NewServerEventTransactor(env, sensor, sk, "m", tcfg)
			if err != nil {
				return err
			}
			logic := env.NewReactor("logic")
			out := dear.NewOutputPort[[]byte](logic, "out")
			dear.Connect(out, set.In)
			timer := dear.NewTimer(logic, "t", dear.Duration(300*dear.Millisecond), dear.Duration(50*dear.Millisecond))
			n := uint32(0)
			logic.AddReaction("emit").Triggers(timer).Effects(out).Do(func(c *dear.ReactionCtx) {
				n++
				var b [4]byte
				binary.BigEndian.PutUint32(b[:], n*7)
				out.Set(c, b[:])
			})
			sk.Offer()
			return nil
		})

		ctrl, err := dear.NewSWC(e2, dear.RuntimeConfig{Name: "ctrl"})
		if err != nil {
			t.Fatal(err)
		}
		var seen []uint32
		ctrl.Start(horizon, func(env *dear.Environment) error {
			cet, err := dear.NewClientEventTransactor(env, ctrl, iface, 1, "m", tcfg)
			if err != nil {
				return err
			}
			logic := env.NewReactor("logic")
			in := dear.NewInputPort[[]byte](logic, "in")
			dear.Connect(cet.Out, in)
			logic.AddReaction("recv").Triggers(in).Do(func(c *dear.ReactionCtx) {
				v, _ := in.Get(c)
				seen = append(seen, binary.BigEndian.Uint32(v))
			})
			return nil
		})
		k.Run(dear.Time(horizon) + dear.Time(dear.Second))
		if sensor.Err() != nil || ctrl.Err() != nil {
			t.Fatalf("swc errors: %v / %v", sensor.Err(), ctrl.Err())
		}
		return seen
	}
	a, b := run(1), run(1234)
	if len(a) == 0 {
		t.Fatal("no data seen")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ across seeds: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("values diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestFacadeTagAlgebra(t *testing.T) {
	tag := dear.Tag{Time: dear.Time(100 * dear.Millisecond), Microstep: 0}
	later := tag.Delay(dear.Duration(5 * dear.Millisecond))
	if !tag.Before(later) {
		t.Error("Delay must advance tags")
	}
	micro := tag.Delay(0)
	if micro.Time != tag.Time || micro.Microstep != 1 {
		t.Errorf("zero delay = %v", micro)
	}
	lc := dear.LinkConfig{Latency: dear.Duration(5 * dear.Millisecond), ClockError: dear.Duration(dear.Millisecond)}
	if lc.SafeToProcessOffset() != dear.Duration(6*dear.Millisecond) {
		t.Errorf("offset = %v", lc.SafeToProcessOffset())
	}
}
