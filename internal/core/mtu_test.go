package core

import (
	"bytes"
	"testing"

	"repro/internal/ara"
	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/reactor"
	"repro/internal/simnet"
)

// TestTaggedPipelineOverMTULimitedLink runs the event transactor path
// with payloads larger than the link MTU: SOME/IP-TP segments the tagged
// messages, the receiver reassembles them, and the DEAR semantics
// (tag algebra, ordering, zero loss) are unaffected.
func TestTaggedPipelineOverMTULimitedLink(t *testing.T) {
	k := des.NewKernel(1)
	n := simnet.NewNetwork(k, simnet.Config{})
	h1 := n.AddHost("p1", k.NewLocalClock(des.ClockConfig{}, nil))
	h2 := n.AddHost("p2", k.NewLocalClock(des.ClockConfig{}, nil))

	const mtu = 1200
	server, err := NewSWC(h1, ara.Config{Name: "server", MTU: mtu})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewSWC(h2, ara.Config{Name: "client", MTU: mtu})
	if err != nil {
		t.Fatal(err)
	}
	cfg := TransactorConfig{
		Deadline: 10 * ms,
		Link:     LinkConfig{Latency: 5 * ms},
	}

	payload := make([]byte, 4000) // ~4 segments at MTU 1200
	for i := range payload {
		payload[i] = byte(i * 11)
	}

	var sendTags, recvTags []logical.Tag
	var received [][]byte
	server.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
		sk, err := server.Runtime().NewSkeleton(echoIface, 1)
		if err != nil {
			return err
		}
		set, err := NewServerEventTransactor(env, server, sk, "beat", cfg)
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		out := reactor.NewOutputPort[[]byte](logic, "out")
		reactor.Connect(out, set.In)
		timer := reactor.NewTimer(logic, "t", 300*ms, 50*ms)
		count := 0
		logic.AddReaction("emit").Triggers(timer).Effects(out).Do(func(c *reactor.Ctx) {
			count++
			if count > 3 {
				return
			}
			p := append([]byte{byte(count)}, payload...)
			sendTags = append(sendTags, c.Tag())
			out.Set(c, p)
		})
		sk.Offer()
		return nil
	})
	client.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
		cet, err := NewClientEventTransactor(env, client, echoIface, 1, "beat", cfg)
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		in := reactor.NewInputPort[[]byte](logic, "in")
		reactor.Connect(cet.Out, in)
		logic.AddReaction("recv").Triggers(in).Do(func(c *reactor.Ctx) {
			v, _ := in.Get(c)
			received = append(received, v)
			recvTags = append(recvTags, c.Tag())
		})
		return nil
	})

	k.Run(logical.Time(2 * logical.Second))
	if len(received) != 3 {
		t.Fatalf("received %d events", len(received))
	}
	for i, p := range received {
		if p[0] != byte(i+1) || !bytes.Equal(p[1:], payload) {
			t.Errorf("event %d payload corrupted", i)
		}
		want := sendTags[i].Delay(10 * ms).Delay(5 * ms)
		if recvTags[i] != want {
			t.Errorf("event %d tag %v, want %v", i, recvTags[i], want)
		}
	}
	// Verify segmentation actually happened.
	sent, _, _ := server.Runtime().ConnStats()
	if sent < 12 { // 3 events × ≥4 segments each
		t.Errorf("server sent %d datagrams; segmentation inactive?", sent)
	}
}
