package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ara"
	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/reactor"
	"repro/internal/simnet"
	"repro/internal/someip"
)

const ms = logical.Millisecond

// echoIface is a simple service for transactor tests.
var echoIface = &ara.ServiceInterface{
	Name:  "Echo",
	ID:    0x2001,
	Major: 1,
	Methods: []ara.MethodSpec{
		{ID: 0x0001, Name: "echo"},
	},
	Events: []ara.EventSpec{
		{ID: someip.EventID(1), Name: "beat", Eventgroup: 1},
	},
	Fields: []ara.FieldSpec{
		{Name: "gain", Get: 0x0010, Set: 0x0011, Notifier: someip.EventID(2), Eventgroup: 2},
	},
}

// dearFixture wires two platforms with a DEAR client and server SWC;
// clientTags and serverTags count the tagged messages crossing each
// one's endpoint.
type dearFixture struct {
	k                      *des.Kernel
	h1, h2                 *simnet.Host
	client, server         *SWC
	clientTags, serverTags tagCounter
}

// tagCounter wraps a runtime's endpoint (ara.Config.WrapEndpoint) and
// counts the messages that cross it carrying a tag, each way.
type tagCounter struct {
	someip.Endpoint
	sent, received int
}

func (c *tagCounter) wrap(ep someip.Endpoint) someip.Endpoint {
	c.Endpoint = ep
	return c
}

func (c *tagCounter) Send(dst someip.Addr, m *someip.Message) error {
	if m.Tag != nil {
		c.sent++
	}
	return c.Endpoint.Send(dst, m)
}

func (c *tagCounter) OnMessage(fn func(src someip.Addr, m *someip.Message)) {
	c.Endpoint.OnMessage(func(src someip.Addr, m *someip.Message) {
		if m.Tag != nil {
			c.received++
		}
		fn(src, m)
	})
}

func newDearFixture(t *testing.T, seed uint64, latency simnet.LatencyModel) *dearFixture {
	t.Helper()
	k := des.NewKernel(seed)
	cfg := simnet.Config{}
	if latency != nil {
		cfg.DefaultLatency = latency
	}
	n := simnet.NewNetwork(k, cfg)
	h1 := n.AddHost("p1", k.NewLocalClock(des.ClockConfig{}, nil))
	h2 := n.AddHost("p2", k.NewLocalClock(des.ClockConfig{}, nil))
	f := &dearFixture{k: k, h1: h1, h2: h2}
	var err error
	if f.server, err = NewSWC(h1, ara.Config{Name: "server", WrapEndpoint: f.serverTags.wrap}); err != nil {
		t.Fatal(err)
	}
	if f.client, err = NewSWC(h2, ara.Config{Name: "client", WrapEndpoint: f.clientTags.wrap}); err != nil {
		t.Fatal(err)
	}
	return f
}

// tcfg is a standard transactor configuration: D=10ms, L=5ms, E=0.
func tcfg() TransactorConfig {
	return TransactorConfig{
		Deadline: logical.Duration(10 * ms),
		Link:     LinkConfig{Latency: logical.Duration(5 * ms)},
	}
}

// statErrors sums a transactor's error counters; Forwarded is not an
// error.
func statErrors(s TransactorStats) uint64 {
	return s.DeadlineViolations + s.SafeToProcessViolations + s.UntaggedDropped + s.RemoteErrors
}

func TestMethodRoundTripThroughTransactors(t *testing.T) {
	f := newDearFixture(t, 1, nil)
	var smt *ServerMethodTransactor
	var cmt *ClientMethodTransactor
	var reqTagAtServer, respTagAtClient, sendTag logical.Tag
	var response []byte

	f.server.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
		sk, err := f.server.Runtime().NewSkeleton(echoIface, 1)
		if err != nil {
			return err
		}
		smt, err = NewServerMethodTransactor(env, f.server, sk, "echo", tcfg())
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		in := reactor.NewInputPort[[]byte](logic, "in")
		out := reactor.NewOutputPort[[]byte](logic, "out")
		reactor.Connect(smt.Request, in)
		reactor.Connect(out, smt.Response)
		logic.AddReaction("serve").Triggers(in).Effects(out).Do(func(c *reactor.Ctx) {
			args, _ := in.Get(c)
			reqTagAtServer = c.Tag()
			out.Set(c, append([]byte("re:"), args...))
		})
		sk.Offer()
		return nil
	})

	f.client.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
		var err error
		cmt, err = NewClientMethodTransactor(env, f.client, echoIface, 1, "echo", tcfg())
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		req := reactor.NewOutputPort[[]byte](logic, "req")
		resp := reactor.NewInputPort[[]byte](logic, "resp")
		reactor.Connect(req, cmt.Request)
		reactor.Connect(cmt.Response, resp)
		// Fire the request well after discovery settles.
		timer := reactor.NewTimer(logic, "kick", logical.Duration(200*ms), 0)
		logic.AddReaction("send").Triggers(timer).Effects(req).Do(func(c *reactor.Ctx) {
			sendTag = c.Tag()
			req.Set(c, []byte("ping"))
		})
		logic.AddReaction("recv").Triggers(resp).Do(func(c *reactor.Ctx) {
			response, _ = resp.Get(c)
			respTagAtClient = c.Tag()
			c.RequestStop()
		})
		return nil
	})

	f.k.RunAll()
	if string(response) != "re:ping" {
		t.Fatalf("response = %q", response)
	}
	// Tag algebra of Figure 3: the server processes the request at
	// tc + Dc + L + E.
	wantServer := sendTag.Delay(logical.Duration(10 * ms)).Delay(logical.Duration(5 * ms))
	if reqTagAtServer != wantServer {
		t.Errorf("server tag %v, want %v (tc+Dc+L+E)", reqTagAtServer, wantServer)
	}
	// The client sees the response at ts + Ds + L + E, with ts >= server
	// request tag.
	wantClientMin := reqTagAtServer.Delay(logical.Duration(10 * ms)).Delay(logical.Duration(5 * ms))
	if respTagAtClient.Before(wantClientMin) {
		t.Errorf("client resp tag %v earlier than %v", respTagAtClient, wantClientMin)
	}
	if smt.Stats().Forwarded != 1 || cmt.Stats().Forwarded == 0 {
		t.Errorf("forward counters: smt=%d cmt=%d", smt.Stats().Forwarded, cmt.Stats().Forwarded)
	}
	if statErrors(smt.Stats()) != 0 || statErrors(cmt.Stats()) != 0 {
		t.Errorf("unexpected errors: smt=%+v cmt=%+v", smt.Stats(), cmt.Stats())
	}
	if f.client.Err() != nil || f.server.Err() != nil {
		t.Errorf("run errors: %v %v", f.client.Err(), f.server.Err())
	}
}

// TestFigure3Sequence instruments the full 22-step message sequence of
// Figure 3 and asserts the causal order of the observable steps.
func TestFigure3Sequence(t *testing.T) {
	f := newDearFixture(t, 1, nil)
	var seq []string
	log := func(step string) { seq = append(seq, step) }

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
			log("11-server-logic-receives")
			args, _ := in.Get(c)
			log("12-server-logic-responds")
			out.Set(c, args)
		})
		sk.Offer()
		return nil
	})

	f.client.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
		cmt, err := NewClientMethodTransactor(env, f.client, echoIface, 1, "echo", tcfg())
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		req := reactor.NewOutputPort[[]byte](logic, "req")
		resp := reactor.NewInputPort[[]byte](logic, "resp")
		reactor.Connect(req, cmt.Request)
		reactor.Connect(cmt.Response, resp)
		timer := reactor.NewTimer(logic, "kick", logical.Duration(200*ms), 0)
		logic.AddReaction("send").Triggers(timer).Effects(req).Do(func(c *reactor.Ctx) {
			log("01-client-invokes")
			req.Set(c, []byte("x"))
		})
		logic.AddReaction("recv").Triggers(resp).Do(func(c *reactor.Ctx) {
			log("22-client-receives")
			c.RequestStop()
		})
		return nil
	})

	// Steps 6/17 are the wire transmissions: observe them at the endpoints.
	f.k.RunAll()

	want := []string{"01-client-invokes", "11-server-logic-receives", "12-server-logic-responds", "22-client-receives"}
	if strings.Join(seq, ",") != strings.Join(want, ",") {
		t.Errorf("sequence = %v, want %v", seq, want)
	}
	// The bindings must have carried tags on both wire crossings.
	if f.clientTags.sent == 0 || f.serverTags.sent == 0 {
		t.Errorf("tagged sends: client=%d server=%d", f.clientTags.sent, f.serverTags.sent)
	}
	if f.clientTags.received == 0 || f.serverTags.received == 0 {
		t.Errorf("tagged receptions: client=%d server=%d", f.clientTags.received, f.serverTags.received)
	}
}

func TestEventPathThroughTransactors(t *testing.T) {
	f := newDearFixture(t, 1, nil)
	var got [][]byte
	var tags []logical.Tag
	var sendTags []logical.Tag

	f.server.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
		sk, err := f.server.Runtime().NewSkeleton(echoIface, 1)
		if err != nil {
			return err
		}
		set, err := NewServerEventTransactor(env, f.server, sk, "beat", tcfg())
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		out := reactor.NewOutputPort[[]byte](logic, "out")
		reactor.Connect(out, set.In)
		timer := reactor.NewTimer(logic, "t", logical.Duration(300*ms), logical.Duration(50*ms))
		n := 0
		logic.AddReaction("emit").Triggers(timer).Effects(out).Do(func(c *reactor.Ctx) {
			n++
			if n > 3 {
				return
			}
			sendTags = append(sendTags, c.Tag())
			out.Set(c, []byte{byte(n)})
		})
		sk.Offer()
		return nil
	})

	f.client.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
		cet, err := NewClientEventTransactor(env, f.client, echoIface, 1, "beat", tcfg())
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		in := reactor.NewInputPort[[]byte](logic, "in")
		reactor.Connect(cet.Out, in)
		logic.AddReaction("recv").Triggers(in).Do(func(c *reactor.Ctx) {
			v, _ := in.Get(c)
			got = append(got, v)
			tags = append(tags, c.Tag())
		})
		return nil
	})

	f.k.Run(logical.Time(2 * logical.Second))
	if len(got) != 3 {
		t.Fatalf("received %d events (%v)", len(got), got)
	}
	for i := range got {
		if got[i][0] != byte(i+1) {
			t.Errorf("event %d payload %v", i, got[i])
		}
		// Tag algebra: t_recv = t_send + D + L + E.
		want := sendTags[i].Delay(logical.Duration(10 * ms)).Delay(logical.Duration(5 * ms))
		if tags[i] != want {
			t.Errorf("event %d tag %v, want %v", i, tags[i], want)
		}
	}
}

func TestEventOrderPreservedDespiteJitter(t *testing.T) {
	// Network jitter below the assumed bound L must not affect the order
	// or tags of delivered events (source #3 of nondeterminism removed).
	run := func(seed uint64) []logical.Tag {
		jitter := &simnet.JitterLatency{
			Base:  logical.Duration(500 * logical.Microsecond),
			Sigma: logical.Duration(800 * logical.Microsecond),
			Max:   logical.Duration(4 * ms), // stays below L=5ms
		}
		f := newDearFixture(t, seed, jitter)
		jitter.Rng = f.k.Rand("jitter") // the stream needs the fixture's kernel
		var tags []logical.Tag
		f.server.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
			sk, err := f.server.Runtime().NewSkeleton(echoIface, 1)
			if err != nil {
				return err
			}
			set, err := NewServerEventTransactor(env, f.server, sk, "beat", tcfg())
			if err != nil {
				return err
			}
			logic := env.NewReactor("logic")
			out := reactor.NewOutputPort[[]byte](logic, "out")
			reactor.Connect(out, set.In)
			timer := reactor.NewTimer(logic, "t", logical.Duration(300*ms), logical.Duration(10*ms))
			n := 0
			logic.AddReaction("emit").Triggers(timer).Effects(out).Do(func(c *reactor.Ctx) {
				n++
				if n > 20 {
					return
				}
				out.Set(c, []byte{byte(n)})
			})
			sk.Offer()
			return nil
		})
		f.client.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
			cet, err := NewClientEventTransactor(env, f.client, echoIface, 1, "beat", tcfg())
			if err != nil {
				return err
			}
			logic := env.NewReactor("logic")
			in := reactor.NewInputPort[[]byte](logic, "in")
			reactor.Connect(cet.Out, in)
			last := -1
			logic.AddReaction("recv").Triggers(in).Do(func(c *reactor.Ctx) {
				v, _ := in.Get(c)
				if int(v[0]) <= last {
					t.Errorf("out-of-order delivery: %d after %d", v[0], last)
				}
				last = int(v[0])
				tags = append(tags, c.Tag())
			})
			return nil
		})
		f.k.Run(logical.Time(2 * logical.Second))
		return tags
	}
	a := run(1)
	b := run(42)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lengths: %d, %d (want 20)", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tags diverge at %d under different physical seeds: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestUntaggedFailPolicy(t *testing.T) {
	// A plain (non-DEAR) ara client calls a DEAR server: the server
	// method transactor must reject the untagged request.
	f := newDearFixture(t, 1, nil)
	var smt *ServerMethodTransactor
	f.server.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
		sk, err := f.server.Runtime().NewSkeleton(echoIface, 1)
		if err != nil {
			return err
		}
		smt, err = NewServerMethodTransactor(env, f.server, sk, "echo", tcfg())
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

	// Plain ara client on another host (untagged binding).
	plain, err := ara.NewRuntime(f.h2, ara.Config{Name: "legacy"})
	if err != nil {
		t.Fatal(err)
	}
	var callErr error
	plain.Spawn("main", func(c *ara.Ctx) {
		px, ferr := plain.FindServiceSync(c.Process(), echoIface, 1, logical.Duration(logical.Second))
		if ferr != nil {
			callErr = ferr
			return
		}
		_, callErr = px.Call("echo", []byte("x")).Get(c.Process())
	})
	f.k.Run(logical.Time(2 * logical.Second))
	re, ok := callErr.(*ara.RemoteError)
	if !ok {
		t.Fatalf("err = %v, want RemoteError", callErr)
	}
	if re.Code != someip.EMissingTag {
		t.Errorf("code = %v, want E_MISSING_TAG", re.Code)
	}
	if smt.Stats().UntaggedDropped != 1 {
		t.Errorf("UntaggedDropped = %d", smt.Stats().UntaggedDropped)
	}
}

func TestSafeToProcessViolationDetected(t *testing.T) {
	// The actual network latency exceeds the assumed bound L: the
	// receiver must detect and count the violated assumption.
	// Assumed L = 1ms, actual latency 20ms.
	f := newDearFixture(t, 1, simnet.FixedLatency(logical.Duration(20*ms)))
	cfg := TransactorConfig{
		Deadline: logical.Duration(2 * ms),
		Link:     LinkConfig{Latency: logical.Duration(1 * ms)},
	}

	var cet *ClientEventTransactor
	received := 0
	f.server.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
		sk, err := f.server.Runtime().NewSkeleton(echoIface, 1)
		if err != nil {
			return err
		}
		set, err := NewServerEventTransactor(env, f.server, sk, "beat", cfg)
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		out := reactor.NewOutputPort[[]byte](logic, "out")
		reactor.Connect(out, set.In)
		timer := reactor.NewTimer(logic, "t", logical.Duration(500*ms), logical.Duration(50*ms))
		n := 0
		logic.AddReaction("emit").Triggers(timer).Effects(out).Do(func(c *reactor.Ctx) {
			n++
			if n <= 5 {
				out.Set(c, []byte{byte(n)})
			}
		})
		sk.Offer()
		return nil
	})
	f.client.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
		var err error
		cet, err = NewClientEventTransactor(env, f.client, echoIface, 1, "beat", cfg)
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		in := reactor.NewInputPort[[]byte](logic, "in")
		reactor.Connect(cet.Out, in)
		logic.AddReaction("recv").Triggers(in).Do(func(c *reactor.Ctx) { received++ })
		return nil
	})
	f.k.Run(logical.Time(2 * logical.Second))
	if cet.Stats().SafeToProcessViolations == 0 {
		t.Error("expected safe-to-process violations with L underestimated")
	}
	if received == 0 {
		t.Error("events must still be delivered (at bumped tags), not lost")
	}
}

func TestDeadlineViolationAtSendingTransactor(t *testing.T) {
	// The server logic consumes more physical time than the event
	// transactor's deadline allows: violations are observable.
	f := newDearFixture(t, 1, nil)
	cfg := TransactorConfig{
		Deadline: logical.Duration(1 * ms), // tight
		Link:     LinkConfig{Latency: logical.Duration(5 * ms)},
	}
	var set *ServerEventTransactor
	f.server.Start(logical.Duration(2*logical.Second), func(env *reactor.Environment) error {
		sk, err := f.server.Runtime().NewSkeleton(echoIface, 1)
		if err != nil {
			return err
		}
		set, err = NewServerEventTransactor(env, f.server, sk, "beat", cfg)
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		out := reactor.NewOutputPort[[]byte](logic, "out")
		reactor.Connect(out, set.In)
		timer := reactor.NewTimer(logic, "t", logical.Duration(300*ms), logical.Duration(50*ms))
		n := 0
		logic.AddReaction("emit").Triggers(timer).Effects(out).Do(func(c *reactor.Ctx) {
			n++
			if n > 4 {
				return
			}
			c.DoWork(logical.Duration(3 * ms)) // exceeds the 1ms deadline
			out.Set(c, []byte{byte(n)})
		})
		sk.Offer()
		return nil
	})
	f.k.Run(logical.Time(2 * logical.Second))
	if set.Stats().DeadlineViolations != 4 {
		t.Errorf("DeadlineViolations = %d, want 4", set.Stats().DeadlineViolations)
	}
	if set.Stats().Forwarded != 0 {
		t.Errorf("Forwarded = %d, want 0 (deadline handler replaces send)", set.Stats().Forwarded)
	}
}

func TestFieldTransactorRoundTrip(t *testing.T) {
	f := newDearFixture(t, 1, nil)
	var sft *ServerFieldTransactor
	var cft *ClientFieldTransactor
	var gotValue, gotChange []byte

	f.server.Start(logical.Duration(3*logical.Second), func(env *reactor.Environment) error {
		sk, err := f.server.Runtime().NewSkeleton(echoIface, 1)
		if err != nil {
			return err
		}
		sft, err = NewServerFieldTransactor(env, f.server, sk, "gain", tcfg())
		if err != nil {
			return err
		}
		// Server logic: field state in the reactor; answers gets and
		// accepts sets, publishing updates.
		logic := env.NewReactor("logic")
		state := []byte{7}
		getIn := reactor.NewInputPort[[]byte](logic, "get")
		setIn := reactor.NewInputPort[[]byte](logic, "set")
		getOut := reactor.NewOutputPort[[]byte](logic, "getOut")
		setOut := reactor.NewOutputPort[[]byte](logic, "setOut")
		upd := reactor.NewOutputPort[[]byte](logic, "upd")
		reactor.Connect(sft.GetRequest, getIn)
		reactor.Connect(sft.SetRequest, setIn)
		reactor.Connect(getOut, sft.GetResponse)
		reactor.Connect(setOut, sft.SetResponse)
		reactor.Connect(upd, sft.UpdateIn)
		logic.AddReaction("get").Triggers(getIn).Effects(getOut).Do(func(c *reactor.Ctx) {
			getOut.Set(c, state)
		})
		logic.AddReaction("set").Triggers(setIn).Effects(setOut, upd).Do(func(c *reactor.Ctx) {
			v, _ := setIn.Get(c)
			state = v
			setOut.Set(c, state)
			upd.Set(c, state)
		})
		sk.Offer()
		return nil
	})

	f.client.Start(logical.Duration(3*logical.Second), func(env *reactor.Environment) error {
		var err error
		cft, err = NewClientFieldTransactor(env, f.client, echoIface, 1, "gain", tcfg())
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		getReq := reactor.NewOutputPort[[]byte](logic, "getReq")
		setReq := reactor.NewOutputPort[[]byte](logic, "setReq")
		val := reactor.NewInputPort[[]byte](logic, "val")
		chg := reactor.NewInputPort[[]byte](logic, "chg")
		reactor.Connect(getReq, cft.GetRequest)
		reactor.Connect(setReq, cft.SetRequest)
		reactor.Connect(cft.Value, val)
		reactor.Connect(cft.Changed, chg)
		kick := reactor.NewTimer(logic, "kick", logical.Duration(400*ms), 0)
		logic.AddReaction("start").Triggers(kick).Effects(setReq).Do(func(c *reactor.Ctx) {
			setReq.Set(c, []byte{42})
		})
		logic.AddReaction("changed").Triggers(chg).Effects(getReq).Do(func(c *reactor.Ctx) {
			gotChange, _ = chg.Get(c)
			getReq.Set(c, nil)
		})
		logic.AddReaction("value").Triggers(val).Do(func(c *reactor.Ctx) {
			gotValue, _ = val.Get(c)
		})
		return nil
	})

	f.k.Run(logical.Time(3 * logical.Second))
	if len(gotChange) != 1 || gotChange[0] != 42 {
		t.Errorf("change notification = %v, want [42]", gotChange)
	}
	if len(gotValue) != 1 || gotValue[0] != 42 {
		t.Errorf("get value = %v, want [42]", gotValue)
	}
	if statErrors(sft.Stats()) != 0 || statErrors(cft.Stats()) != 0 {
		t.Errorf("errors: server %+v client %+v", sft.Stats(), cft.Stats())
	}
}

func TestBypassStageClearPeek(t *testing.T) {
	b := NewTimestampBypass()
	tag := logical.Tag{Time: 5, Microstep: 1}
	b.Stage(1, 2, tag)
	got, ok := b.Peek(1, 2)
	if !ok || got != tag {
		t.Errorf("Peek = %v, %v", got, ok)
	}
	if _, ok := b.Peek(1, 3); ok {
		t.Error("Peek of unstaged key should miss")
	}
	b.Clear(1, 2)
	if _, ok := b.Peek(1, 2); ok {
		t.Error("Clear did not remove")
	}
}

func TestBindingStatsCountTagged(t *testing.T) {
	b := NewBinding()
	m := &someip.Message{Service: 1, Method: 2, Type: someip.TypeRequest}
	b.Outgoing(m) // nothing staged
	if m.Tag != nil {
		t.Error("tag attached without staging")
	}
	b.Bypass().Stage(1, 2, logical.Tag{Time: 9})
	m2 := &someip.Message{Service: 1, Method: 2, Type: someip.TypeRequest}
	b.Outgoing(m2)
	if m2.Tag == nil || m2.Tag.Time != 9 {
		t.Errorf("tag = %v", m2.Tag)
	}
	// A message that already carries a tag keeps it.
	own := logical.Tag{Time: 4}
	m3 := &someip.Message{Service: 1, Method: 2, Type: someip.TypeRequest, Tag: &own}
	b.Outgoing(m3)
	if m3.Tag != &own {
		t.Errorf("own tag replaced by %v", m3.Tag)
	}
}

func TestLinkConfigOffset(t *testing.T) {
	lc := LinkConfig{Latency: 5, ClockError: 3}
	if lc.SafeToProcessOffset() != 8 {
		t.Errorf("offset = %d", lc.SafeToProcessOffset())
	}
}

func TestSWCDoubleStartPanics(t *testing.T) {
	f := newDearFixture(t, 1, nil)
	f.client.Start(logical.Duration(ms), func(env *reactor.Environment) error {
		env.NewReactor("r")
		return nil
	})
	defer func() {
		if recover() == nil {
			t.Error("want panic on double start")
		}
	}()
	f.client.Start(0, func(env *reactor.Environment) error { return nil })
}

func TestSWCBuildErrorSurfaces(t *testing.T) {
	f := newDearFixture(t, 1, nil)
	f.client.Start(0, func(env *reactor.Environment) error {
		return fmt.Errorf("boom")
	})
	f.k.RunAll()
	if f.client.Err() == nil || !strings.Contains(f.client.Err().Error(), "boom") {
		t.Errorf("err = %v", f.client.Err())
	}
}
