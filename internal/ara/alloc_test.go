package ara

import (
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
)

// TestCallAllocs pins the heap cost of a warm Proxy.Call→Get round trip
// with a synchronous handler over the simulated network at exactly 5
// allocations: the caller's Future, the request and reply datagram
// buffers (simnet copies a payload into a buffer the receiver owns) and
// the two sender addresses boxed into someip.Addr on receipt.
// Everything else — the outgoing Message, the decoded Message and
// payload, the server's serve object (taken from and returned to its
// runtime's free list), the Ctx, the reply event, the waiter slot — is
// reused or inline. A runtime that allocated a serve per request read 6.
func TestCallAllocs(t *testing.T) {
	const n = 200
	k := des.NewKernel(1)
	net := simnet.NewNetwork(k, simnet.Config{})
	noJitter := func(*des.Rand) logical.Duration { return 0 }
	exec := ExecConfig{Workers: 2, Serialized: true, DispatchJitter: noJitter}
	server, err := NewRuntime(net.AddHost("server", nil), Config{Name: "server", Port: 30509, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewRuntime(net.AddHost("client", nil), Config{Name: "client", Port: 30509, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := server.NewSkeleton(calcIface, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.Handle("add", func(_ *Ctx, args []byte) ([]byte, error) { return args, nil }); err != nil {
		t.Fatal(err)
	}
	sk.Offer()
	px := client.StaticProxy(calcIface, 1, server.Addr())
	args := u32(7)
	var callErr error
	// round runs one caller process making calls round trips; the
	// per-call cost is the difference between two round sizes, so the
	// caller's spawn is not counted.
	round := func(calls int) func() {
		return func() {
			client.Spawn("caller", func(c *Ctx) {
				for i := 0; i < calls && callErr == nil; i++ {
					_, callErr = px.Call("add", args).Get(c.Process())
				}
			})
			k.RunAll()
		}
	}
	round(n)() // warm-up: worker pools, free lists, the pending map
	perCall := (testing.AllocsPerRun(10, round(2*n)) - testing.AllocsPerRun(10, round(n))) / n
	if callErr != nil {
		t.Fatal(callErr)
	}
	t.Logf("%.3f allocs per round trip", perCall)
	if perCall != 5 {
		t.Errorf("%.3f allocs per Call→Get round trip, want 5", perCall)
	}
	k.Shutdown()
}
