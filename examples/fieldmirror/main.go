// Fieldmirror demonstrates AP fields under DEAR: a field is a state
// variable exposed by a server with a get method, a set method and a
// change notifier — which is why the paper's field transactor composes
// one event and two method transactors.
//
// A "vehicle config" server keeps a speed limit in its reactor state; a
// dashboard client mirrors it: it subscribes to changes, adjusts the
// limit, and reads it back — all deterministic, all in tag order.
//
// Run with:
//
//	go run ./examples/fieldmirror
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	dear "repro"
)

var configIface = &dear.ServiceInterface{
	Name:  "VehicleConfig",
	ID:    0x6201,
	Major: 1,
	Fields: []dear.FieldSpec{
		{Name: "speed_limit", Get: 0x0001, Set: 0x0002, Notifier: dear.EventID(1), Eventgroup: 1},
	},
}

func u32(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}

func main() {
	k := dear.NewKernel(2)
	net := dear.NewNetwork(k, dear.NetworkConfig{})
	serverECU := net.AddHost("config-ecu", k.NewLocalClock(dear.ClockConfig{}, nil))
	clientECU := net.AddHost("dashboard-ecu", k.NewLocalClock(dear.ClockConfig{}, nil))

	tcfg := dear.TransactorConfig{
		Deadline: dear.Duration(5 * dear.Millisecond),
		Link:     dear.LinkConfig{Latency: dear.Duration(5 * dear.Millisecond)},
	}
	horizon := dear.Duration(3 * dear.Second)

	// --- Server: the field state lives in the reactor.
	server, err := dear.NewSWC(serverECU, dear.RuntimeConfig{Name: "config"})
	if err != nil {
		log.Fatal(err)
	}
	server.Start(horizon, func(env *dear.Environment) error {
		sk, err := server.Runtime().NewSkeleton(configIface, 1)
		if err != nil {
			return err
		}
		sft, err := dear.NewServerFieldTransactor(env, server, sk, "speed_limit", tcfg)
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		state := u32(120) // km/h
		getIn := dear.NewInputPort[[]byte](logic, "get")
		setIn := dear.NewInputPort[[]byte](logic, "set")
		getOut := dear.NewOutputPort[[]byte](logic, "getOut")
		setOut := dear.NewOutputPort[[]byte](logic, "setOut")
		update := dear.NewOutputPort[[]byte](logic, "update")
		dear.Connect(sft.GetRequest, getIn)
		dear.Connect(sft.SetRequest, setIn)
		dear.Connect(getOut, sft.GetResponse)
		dear.Connect(setOut, sft.SetResponse)
		dear.Connect(update, sft.UpdateIn)
		logic.AddReaction("get").Triggers(getIn).Effects(getOut).Do(func(c *dear.ReactionCtx) {
			getOut.Set(c, state)
		})
		logic.AddReaction("set").Triggers(setIn).Effects(setOut, update).Do(func(c *dear.ReactionCtx) {
			v, _ := setIn.Get(c)
			// Validate: clamp to 30..130 km/h.
			limit := binary.BigEndian.Uint32(v)
			if limit > 130 {
				limit = 130
			}
			if limit < 30 {
				limit = 30
			}
			state = u32(limit)
			setOut.Set(c, state)
			update.Set(c, state)
		})
		sk.Offer()
		return nil
	})

	// --- Dashboard client.
	client, err := dear.NewSWC(clientECU, dear.RuntimeConfig{Name: "dashboard"})
	if err != nil {
		log.Fatal(err)
	}
	client.Start(horizon, func(env *dear.Environment) error {
		cft, err := dear.NewClientFieldTransactor(env, client, configIface, 1, "speed_limit", tcfg)
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		getReq := dear.NewOutputPort[[]byte](logic, "getReq")
		setReq := dear.NewOutputPort[[]byte](logic, "setReq")
		value := dear.NewInputPort[[]byte](logic, "value")
		setAck := dear.NewInputPort[[]byte](logic, "setAck")
		changed := dear.NewInputPort[[]byte](logic, "changed")
		dear.Connect(getReq, cft.GetRequest)
		dear.Connect(setReq, cft.SetRequest)
		dear.Connect(cft.Value, value)
		dear.Connect(cft.SetResult, setAck)
		dear.Connect(cft.Changed, changed)

		// Scenario: read, then try to set 150 (clamped to 130), then 80.
		step := 0
		kick := dear.NewTimer(logic, "kick", dear.Duration(400*dear.Millisecond), dear.Duration(200*dear.Millisecond))
		logic.AddReaction("drive").Triggers(kick).Effects(getReq, setReq).Do(func(c *dear.ReactionCtx) {
			step++
			switch step {
			case 1:
				fmt.Printf("[%v] dashboard: get()\n", c.Elapsed())
				getReq.Set(c, nil)
			case 2:
				fmt.Printf("[%v] dashboard: set(150) — over the cap\n", c.Elapsed())
				setReq.Set(c, u32(150))
			case 3:
				fmt.Printf("[%v] dashboard: set(80)\n", c.Elapsed())
				setReq.Set(c, u32(80))
			}
		})
		logic.AddReaction("value").Triggers(value).Do(func(c *dear.ReactionCtx) {
			v, _ := value.Get(c)
			fmt.Printf("[%v] dashboard: value = %d km/h\n", c.Elapsed(), binary.BigEndian.Uint32(v))
		})
		logic.AddReaction("ack").Triggers(setAck).Do(func(c *dear.ReactionCtx) {
			v, _ := setAck.Get(c)
			fmt.Printf("[%v] dashboard: server accepted %d km/h\n", c.Elapsed(), binary.BigEndian.Uint32(v))
		})
		logic.AddReaction("changed").Triggers(changed).Do(func(c *dear.ReactionCtx) {
			v, _ := changed.Get(c)
			fmt.Printf("[%v] dashboard: notified, limit now %d km/h\n", c.Elapsed(), binary.BigEndian.Uint32(v))
		})
		return nil
	})

	k.Run(dear.Time(horizon) + dear.Time(dear.Second))
	fmt.Println("\nEvery interaction rode a tagged message; get/set/notify of the")
	fmt.Println("field triple each went through their own transactor (Sec. III-B).")
}
