package core

import (
	"testing"

	"repro/internal/ara"
	"repro/internal/logical"
	"repro/internal/reactor"
)

// slowIface is a one-method service for the server-deadline test.
var slowIface = &ara.ServiceInterface{
	Name:  "Logger",
	ID:    0x2202,
	Major: 1,
	Methods: []ara.MethodSpec{
		{ID: 0x0002, Name: "slow"},
	},
}

func TestClientMethodTransactorDeadlineViolation(t *testing.T) {
	// The client logic lags behind its tag beyond Dc: the send reaction's
	// deadline handler replaces the call — the request is never sent.
	f := newDearFixture(t, 1, nil)
	cfg := TransactorConfig{
		Deadline: logical.Millisecond, // very tight
		Link:     LinkConfig{Latency: 5 * ms},
	}
	served := 0
	f.server.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
		sk, err := f.server.Runtime().NewSkeleton(echoIface, 1)
		if err != nil {
			return err
		}
		smt, err := NewServerMethodTransactor(env, f.server, sk, "echo", tcfg())
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		in := reactor.NewInputPort[[]byte](logic, "in")
		out := reactor.NewOutputPort[[]byte](logic, "out")
		reactor.Connect(smt.Request, in)
		reactor.Connect(out, smt.Response)
		logic.AddReaction("serve").Triggers(in).Effects(out).Do(func(c *reactor.Ctx) {
			served++
			v, _ := in.Get(c)
			out.Set(c, v)
		})
		sk.Offer()
		return nil
	})

	var cmt *ClientMethodTransactor
	responses := 0
	f.client.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
		var err error
		cmt, err = NewClientMethodTransactor(env, f.client, echoIface, 1, "echo", cfg)
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		req := reactor.NewOutputPort[[]byte](logic, "req")
		resp := reactor.NewInputPort[[]byte](logic, "resp")
		reactor.Connect(req, cmt.Request)
		reactor.Connect(cmt.Response, resp)
		timer := reactor.NewTimer(logic, "kick", 300*ms, 0)
		logic.AddReaction("send").Triggers(timer).Effects(req).Do(func(c *reactor.Ctx) {
			// Burn physical time past the 1ms deadline before the
			// request event reaches the transactor (same tag).
			c.DoWork(5 * ms)
			req.Set(c, []byte("late"))
		})
		logic.AddReaction("recv").Triggers(resp).Do(func(c *reactor.Ctx) { responses++ })
		return nil
	})

	f.k.Run(logical.Time(2 * logical.Second))
	if cmt.Stats().DeadlineViolations != 1 {
		t.Errorf("client deadline violations = %d, want 1", cmt.Stats().DeadlineViolations)
	}
	if served != 0 {
		t.Errorf("server served %d calls; violated request must not be sent", served)
	}
	if responses != 0 {
		t.Errorf("responses = %d, want 0", responses)
	}
}

func TestServerMethodTransactorDeadlineReturnsTimeout(t *testing.T) {
	// The server logic misses the response deadline Ds: the pending
	// invocation resolves with E_TIMEOUT instead of hanging the client.
	f := newDearFixture(t, 1, nil)
	serverCfg := TransactorConfig{
		Deadline: logical.Millisecond, // response must be ready ~instantly
		Link:     LinkConfig{Latency: 5 * ms},
	}
	f.server.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
		sk, err := f.server.Runtime().NewSkeleton(slowIface, 1)
		if err != nil {
			return err
		}
		smt, err := NewServerMethodTransactor(env, f.server, sk, "slow", serverCfg)
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		in := reactor.NewInputPort[[]byte](logic, "in")
		out := reactor.NewOutputPort[[]byte](logic, "out")
		reactor.Connect(smt.Request, in)
		reactor.Connect(out, smt.Response)
		logic.AddReaction("serve").Triggers(in).Effects(out).Do(func(c *reactor.Ctx) {
			c.DoWork(8 * ms) // exceeds the 1ms response deadline
			v, _ := in.Get(c)
			out.Set(c, v)
		})
		sk.Offer()
		return nil
	})

	// Plain DEAR client through a method transactor.
	done := false
	f.client.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
		cmt, err := NewClientMethodTransactor(env, f.client, slowIface, 1, "slow", tcfg())
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		req := reactor.NewOutputPort[[]byte](logic, "req")
		resp := reactor.NewInputPort[[]byte](logic, "resp")
		reactor.Connect(req, cmt.Request)
		reactor.Connect(cmt.Response, resp)
		timer := reactor.NewTimer(logic, "kick", 300*ms, 0)
		logic.AddReaction("send").Triggers(timer).Effects(req).Do(func(c *reactor.Ctx) {
			req.Set(c, []byte("x"))
		})
		logic.AddReaction("recv").Triggers(resp).Do(func(c *reactor.Ctx) { done = true })
		return nil
	})

	f.k.Run(logical.Time(2 * logical.Second))
	// The response was an E_TIMEOUT error: the client transactor counts a
	// remote error and forwards nothing.
	if done {
		t.Error("client received a payload despite server deadline violation")
	}
}

func TestRequestBeforeDiscoveryCountsRemoteError(t *testing.T) {
	// A request event before SD has bound the proxy is a counted error.
	f := newDearFixture(t, 1, nil)
	var cmt *ClientMethodTransactor
	f.client.Start(logical.Duration(500*ms), func(env *reactor.Environment) error {
		var err error
		cmt, err = NewClientMethodTransactor(env, f.client, echoIface, 1, "echo", tcfg())
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		req := reactor.NewOutputPort[[]byte](logic, "req")
		reactor.Connect(req, cmt.Request)
		// Nobody offers the service: fire immediately.
		timer := reactor.NewTimer(logic, "kick", logical.Millisecond, 0)
		logic.AddReaction("send").Triggers(timer).Effects(req).Do(func(c *reactor.Ctx) {
			req.Set(c, []byte("x"))
		})
		return nil
	})
	f.k.Run(logical.Time(logical.Second))
	if cmt.Stats().RemoteErrors != 1 {
		t.Errorf("remote errors = %d, want 1 (unbound proxy)", cmt.Stats().RemoteErrors)
	}
	if cmt.proxy != nil {
		t.Error("proxy should never have bound")
	}
}

func TestUnmatchedResponseCountsRemoteError(t *testing.T) {
	// A Response event with no pending invocation (server logic invents
	// one) is counted, not silently dropped.
	f := newDearFixture(t, 1, nil)
	var smt *ServerMethodTransactor
	f.server.Start(logical.Duration(1*logical.Second), func(env *reactor.Environment) error {
		sk, err := f.server.Runtime().NewSkeleton(echoIface, 1)
		if err != nil {
			return err
		}
		smt, err = NewServerMethodTransactor(env, f.server, sk, "echo", tcfg())
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		out := reactor.NewOutputPort[[]byte](logic, "out")
		reactor.Connect(out, smt.Response)
		timer := reactor.NewTimer(logic, "spurious", 100*ms, 0)
		logic.AddReaction("respond").Triggers(timer).Effects(out).Do(func(c *reactor.Ctx) {
			out.Set(c, []byte("nobody asked"))
		})
		sk.Offer()
		return nil
	})
	f.k.Run(logical.Time(logical.Second))
	if smt.Stats().RemoteErrors != 1 {
		t.Errorf("remote errors = %d, want 1 (unmatched response)", smt.Stats().RemoteErrors)
	}
	if len(smt.pending) != 0 {
		t.Errorf("outstanding = %d", len(smt.pending))
	}
}
