package ara

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
	"repro/internal/someip"
)

// sendNoReturn sends a raw REQUEST_NO_RETURN from c, as any SOME/IP
// peer may: the runtime's own proxies send only requests that expect a
// response.
func sendNoReturn(t *testing.T, c *someip.Conn, dst someip.Addr, service someip.ServiceID, method someip.MethodID, payload []byte) {
	t.Helper()
	if err := c.Send(dst, &someip.Message{
		Service: service, Method: method, Client: 0x7e, Session: 1, InterfaceVersion: 1,
		Type: someip.TypeRequestNoReturn, Code: someip.EOK, Payload: payload,
	}); err != nil {
		t.Error(err)
	}
}

// msgCounter wraps a runtime's endpoint (Config.WrapEndpoint) and
// counts the messages the runtime sends through it and receives from
// it. The counts are atomic so a test goroutine may read them while a
// real-time driver runs.
type msgCounter struct {
	someip.Endpoint
	sent, received atomic.Int64
}

func (c *msgCounter) wrap(ep someip.Endpoint) someip.Endpoint {
	c.Endpoint = ep
	return c
}

func (c *msgCounter) Send(dst someip.Addr, m *someip.Message) error {
	c.sent.Add(1)
	return c.Endpoint.Send(dst, m)
}

func (c *msgCounter) OnMessage(fn func(src someip.Addr, m *someip.Message)) {
	c.Endpoint.OnMessage(func(src someip.Addr, m *someip.Message) {
		c.received.Add(1)
		fn(src, m)
	})
}

// Fire&forget requests get no reply, not even an error: SOME/IP says so,
// and after the client's 16-bit session counter wraps a stray error
// could resolve an unrelated pending call with the same session. A
// plain request to an unoffered service still gets its error.
func TestFireAndForgetGetsNoErrorReply(t *testing.T) {
	k := des.NewKernel(1)
	n := simnet.NewNetwork(k, simnet.Config{})
	var serverMsgs msgCounter
	server, err := NewRuntime(n.AddHost("p1", nil), Config{Name: "server", WrapEndpoint: serverMsgs.wrap})
	if err != nil {
		t.Fatal(err)
	}
	h2 := n.AddHost("p2", nil)
	client, err := NewRuntime(h2, Config{Name: "client"})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := server.NewSkeleton(calcIface, 1) // never offered
	if err != nil {
		t.Fatal(err)
	}
	peer := someip.NewConn(h2.MustBind(40000), false)
	replies := 0
	peer.OnMessage(func(someip.Addr, *someip.Message) { replies++ })
	k.At(0, func() {
		sendNoReturn(t, peer, server.Addr(), calcIface.ID, 0x0004, []byte("unoffered service"))
	})
	k.At(logical.Time(logical.Millisecond), func() {
		sk.Offer()
		sendNoReturn(t, peer, server.Addr(), calcIface.ID, 0x7777, []byte("unknown method"))
	})
	k.Run(logical.Time(10 * logical.Millisecond))
	if received, sent := serverMsgs.received.Load(), serverMsgs.sent.Load(); received != 2 || sent != 0 {
		t.Fatalf("server received %d fire&forget requests and sent %d datagrams back, want 2 and 0", received, sent)
	}
	if replies != 0 {
		t.Errorf("peer received %d replies to fire&forget requests", replies)
	}

	other := &ServiceInterface{Name: "Other", ID: calcIface.ID + 1, Major: 1, Methods: calcIface.Methods}
	if _, err := server.NewSkeleton(other, 1); err != nil { // never offered
		t.Fatal(err)
	}
	var callErr error
	client.Spawn("main", func(c *Ctx) {
		_, callErr = client.StaticProxy(other, 1, server.Addr()).Call("add", u32(1)).Get(c.Process())
	})
	k.Run(logical.Time(20 * logical.Millisecond))
	if re, ok := callErr.(*RemoteError); !ok || re.Code != someip.EUnknownService {
		t.Errorf("request to an unoffered service: err = %v, want E_UNKNOWN_SERVICE", callErr)
	}
}

// A worker thread hands one Ctx to every task it runs; each task still
// sees its own message, for the whole of its run.
func TestWorkerCtxPerTask(t *testing.T) {
	f := newFixture(t, 1, serialExec())
	type seen struct {
		ctx           *Ctx
		p             *des.Process
		before, after someip.SessionID
		args          uint32
	}
	var runs []seen
	f.skeleton.HandleID(0x0005, func(c *Ctx, args []byte) ([]byte, error) {
		s := seen{ctx: c, p: c.Process(), before: c.Message().Session, args: decodeU32(args)}
		c.Exec(100 * logical.Microsecond) // the next request queues meanwhile
		s.after = c.Message().Session
		runs = append(runs, s)
		return nil, nil
	})
	var sessions [2]someip.SessionID
	var callErr error
	f.client.Spawn("main", func(c *Ctx) {
		px, err := f.client.FindServiceSync(c.Process(), calcIface, 1, logical.Duration(logical.Second))
		if err != nil {
			callErr = err
			return
		}
		futs := [2]*Future{px.CallID(0x0005, u32(10)), px.CallID(0x0005, u32(20))}
		sessions = [2]someip.SessionID{f.client.session - 1, f.client.session}
		for _, fut := range futs {
			if _, err := fut.Get(c.Process()); err != nil {
				callErr = err
			}
		}
	})
	f.k.Run(logical.Time(10 * logical.Second))
	if callErr != nil {
		t.Fatal(callErr)
	}
	if len(runs) != 2 {
		t.Fatalf("%d handler runs, want 2", len(runs))
	}
	if runs[0].ctx != runs[1].ctx || runs[0].p != runs[1].p {
		t.Error("back-to-back tasks on one worker did not share its Ctx")
	}
	for i, r := range runs {
		if r.before != sessions[i] || r.after != sessions[i] || r.args != uint32(10*(i+1)) {
			t.Errorf("task %d saw session %d then %d, args %d; want session %d, args %d",
				i, r.before, r.after, r.args, sessions[i], 10*(i+1))
		}
	}
}

// A future wakes its waiters in the order they called Get, also after
// the first one (in the inline backing slot) gave up through GetTimeout.
func TestFutureWakeOrder(t *testing.T) {
	k := des.NewKernel(1)
	fut := NewFuture(k)
	var woke []string
	get := func(name string, at logical.Time, timeout logical.Duration) {
		k.SpawnAt(at, name, func(p *des.Process) {
			var err error
			if timeout > 0 {
				_, err = fut.GetTimeout(p, timeout)
			} else {
				_, err = fut.Get(p)
			}
			if err == nil {
				woke = append(woke, name)
			}
		})
	}
	get("quitter", 0, 5)
	get("a", 1, 0)
	get("b", 2, 0)
	get("c", 10, 0)
	k.At(20, func() { fut.Resolve(Result{}) })
	k.RunAll()
	if len(woke) != 3 || woke[0] != "a" || woke[1] != "b" || woke[2] != "c" {
		t.Errorf("woke %v, want [a b c]", woke)
	}
}

// TestServeRecycled follows served requests through their runtime's
// free list. A task goes back to the list, zeroed, once its handler has
// returned and its reply is sent: after a sync reply, after an async
// reply (not while its future is pending), after a fire&forget handler
// and after an event handler. Each later request reuses the same task.
func TestServeRecycled(t *testing.T) {
	f := newFixture(t, 1, serialExec())
	var pending *Future
	f.skeleton.HandleIDAsync(0x0006, func(c *Ctx, args []byte) *Future {
		pending = NewFuture(f.k)
		return pending
	})
	peer := someip.NewConn(f.h2.MustBind(40000), false)
	var task *serve // the server's one recycled task
	recycled := func(step string, rt *Runtime, want *serve) *serve {
		t.Helper()
		if len(rt.free) != 1 {
			t.Fatalf("%s: %d tasks on the free list, want 1", step, len(rt.free))
		}
		s := rt.free[0]
		if !reflect.ValueOf(*s).IsZero() {
			t.Errorf("%s: the recycled task is not zeroed: %+v", step, *s)
		}
		if want != nil && s != want {
			t.Errorf("%s: a new task was allocated instead of reusing the free one", step)
		}
		return s
	}
	events := 0
	f.client.Spawn("main", func(c *Ctx) {
		px, err := f.client.FindServiceSync(c.Process(), calcIface, 1, logical.Duration(logical.Second))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := px.Call("add", u32(1)).Get(c.Process()); err != nil {
			t.Error(err)
			return
		}
		task = recycled("sync reply", f.server, nil)

		fut := px.CallID(0x0006, u32(2))
		c.Exec(logical.Duration(logical.Millisecond))
		if pending == nil || len(f.server.free) != 0 {
			t.Errorf("async handler ran: %v; %d tasks free while its reply is pending, want 0", pending != nil, len(f.server.free))
			return
		}
		pending.Resolve(Result{Payload: u32(2)})
		if r, err := fut.Get(c.Process()); err != nil || decodeU32(r) != 2 {
			t.Errorf("async reply %v, %v; want 2", decodeU32(r), err)
		}
		recycled("async reply", f.server, task)

		sendNoReturn(t, peer, f.server.Addr(), calcIface.ID, 0x0002, u32(3))
		c.Exec(logical.Duration(logical.Millisecond))
		if f.value != 4 {
			t.Errorf("value %d after add 1 and fire&forget add 3, want 4", f.value)
		}
		recycled("fire&forget", f.server, task)

		if err := px.SubscribeID(someip.EventID(1), 1, func(*Ctx, []byte) { events++ }); err != nil {
			t.Error(err)
			return
		}
		key := someip.ServiceKey{Service: calcIface.ID, Instance: 1}
		for len(f.server.sd.Subscribers(key, 1)) == 0 {
			c.Exec(logical.Duration(10 * logical.Millisecond))
		}
		f.skeleton.NotifyID(someip.EventID(1), 1, u32(5))
		c.Exec(logical.Duration(10 * logical.Millisecond))
		recycled("event handler", f.client, nil)
	})
	f.k.Run(logical.Time(10 * logical.Second))
	if task == nil || events != 1 {
		t.Fatalf("the sequence did not complete: %d events handled", events)
	}
}
