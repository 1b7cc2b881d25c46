package exp

import (
	"fmt"

	"repro/internal/ara"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/reactor"
	"repro/internal/simnet"
)

// echoIface is the service used by the round-trip driver (Figure 3 / E2).
var echoIface = &ara.ServiceInterface{
	Name:  "Echo",
	ID:    0x2101,
	Major: 1,
	Methods: []ara.MethodSpec{
		{ID: 1, Name: "echo"},
	},
}

// RunMethodRoundTrips drives n sequential tagged method calls through the
// complete Figure 3 chain — client reactor → client method transactor →
// proxy → tagged binding → network → skeleton → server method transactor
// → server reactor and back — and returns how many completed.
func RunMethodRoundTrips(seed uint64, n int) (int, error) {
	k := des.NewKernel(seed)
	net := simnet.NewNetwork(k, simnet.Config{})
	h1 := net.AddHost("p1", k.NewLocalClock(des.ClockConfig{}, nil))
	h2 := net.AddHost("p2", k.NewLocalClock(des.ClockConfig{}, nil))

	server, err := core.NewSWC(h1, ara.Config{Name: "server"})
	if err != nil {
		return 0, err
	}
	client, err := core.NewSWC(h2, ara.Config{Name: "client"})
	if err != nil {
		return 0, err
	}
	cfg := core.TransactorConfig{
		Deadline: 10 * logical.Millisecond,
		Link:     core.LinkConfig{Latency: 5 * logical.Millisecond},
	}
	// Each round trip spans ~30ms of logical time (2×(D+L)).
	horizon := logical.Duration(n+20)*40*logical.Millisecond + logical.Second

	server.Start(horizon, func(env *reactor.Environment) error {
		sk, err := server.Runtime().NewSkeleton(echoIface, 1)
		if err != nil {
			return err
		}
		smt, err := core.NewServerMethodTransactor(env, server, sk, "echo", cfg)
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		in := reactor.NewInputPort[[]byte](logic, "in")
		out := reactor.NewOutputPort[[]byte](logic, "out")
		reactor.Connect(smt.Request, in)
		reactor.Connect(out, smt.Response)
		logic.AddReaction("serve").Triggers(in).Effects(out).Do(func(c *reactor.Ctx) {
			v, _ := in.Get(c)
			out.Set(c, v)
		})
		sk.Offer()
		return nil
	})

	completed := 0
	client.Start(horizon, func(env *reactor.Environment) error {
		cmt, err := core.NewClientMethodTransactor(env, client, echoIface, 1, "echo", cfg)
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		req := reactor.NewOutputPort[[]byte](logic, "req")
		resp := reactor.NewInputPort[[]byte](logic, "resp")
		reactor.Connect(req, cmt.Request)
		reactor.Connect(cmt.Response, resp)
		kick := reactor.NewTimer(logic, "kick", 200*logical.Millisecond, 0)
		logic.AddReaction("first").Triggers(kick).Effects(req).Do(func(c *reactor.Ctx) {
			req.Set(c, []byte{0})
		})
		logic.AddReaction("next").Triggers(resp).Effects(req).Do(func(c *reactor.Ctx) {
			completed++
			if completed >= n {
				c.RequestStop()
				return
			}
			req.Set(c, []byte{byte(completed)})
		})
		return nil
	})

	k.RunAll()
	k.Shutdown()
	if server.Err() != nil {
		return completed, fmt.Errorf("exp: server: %w", server.Err())
	}
	if client.Err() != nil {
		return completed, fmt.Errorf("exp: client: %w", client.Err())
	}
	return completed, nil
}
