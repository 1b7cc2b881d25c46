package ara

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/someip"
)

// These tests exercise the full ara::com runtime — proxy, skeleton,
// executor, futures, binding hook — over real loopback UDP sockets, with
// each runtime's kernel driven by its own physical-clock driver. This is
// the integration proof of the transport seam: the code above the
// binding is byte-for-byte the same code the deterministic experiments
// run over simnet.

var udpEchoIface = &ServiceInterface{
	Name:  "Echo",
	ID:    0x2101,
	Major: 1,
	Methods: []MethodSpec{
		{ID: 1, Name: "echo"},
	},
}

// stampHook is a minimal DEAR-style binding hook: it stamps outgoing
// requests with a fixed tag (standing in for the timestamp bypass).
type stampHook struct {
	tag logical.Tag
}

func (h *stampHook) Outgoing(m *someip.Message) {
	if m.Type == someip.TypeRequest && m.Tag == nil {
		t := h.tag
		m.Tag = &t
	}
}

// udpPair builds a tagged server/client runtime pair on loopback, each
// on its own kernel and driver (one OS process boundary per runtime, as
// in a real deployment). Kernel-touching setup (skeletons, spawns) must
// happen before calling start, which launches both drivers. When
// clientMsgs is non-nil it wraps the client's endpoint.
func udpPair(t *testing.T, clientMsgs *msgCounter) (server, client *Runtime, start func()) {
	t.Helper()
	if testing.Short() {
		t.Skip("real sockets skipped with -short")
	}
	drvS := des.NewRealTime(des.NewKernel(1))
	drvC := des.NewRealTime(des.NewKernel(2))
	server, err := NewUDPRuntime(drvS, "127.0.0.1:0", Config{Name: "server", Tagged: true})
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	clientCfg := Config{Name: "client", Tagged: true}
	if clientMsgs != nil {
		clientCfg.WrapEndpoint = clientMsgs.wrap
	}
	client, err = NewUDPRuntime(drvC, "127.0.0.1:0", clientCfg)
	if err != nil {
		server.Close()
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	var once sync.Once
	start = func() {
		once.Do(func() {
			go drvS.Run()
			go drvC.Run()
		})
	}
	t.Cleanup(func() {
		start() // ensure Run began so Done() can close
		drvS.Stop()
		drvC.Stop()
		<-drvS.Done()
		<-drvC.Done()
		server.Close()
		client.Close()
		server.Kernel().Shutdown()
		client.Kernel().Shutdown()
	})
	return server, client, start
}

func TestUDPRuntimeTaggedMethodRoundTrip(t *testing.T) {
	var clientMsgs msgCounter
	server, client, start := udpPair(t, &clientMsgs)

	// Server: echo back the payload; delay the request tag by the
	// handler's deadline, as the DEAR server method transactor does.
	const deadline = 250 * logical.Microsecond
	serverTags := make(chan logical.Tag, 1)
	sk, err := server.NewSkeleton(udpEchoIface, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.HandleAsync("echo", func(c *Ctx, args []byte) *Future {
		var respTag *logical.Tag
		if tag := c.Message().Tag; tag != nil {
			select {
			case serverTags <- *tag:
			default:
			}
			delayed := tag.Delay(deadline)
			respTag = &delayed
		}
		return ResolvedFuture(c.Runtime().Kernel(), Result{
			Payload: append([]byte("re:"), args...),
			Tag:     respTag,
		})
	}); err != nil {
		t.Fatal(err)
	}
	sk.Offer()

	// Client: stamp requests with a tag (the modified binding's job) and
	// drive one call from an application process.
	reqTag := logical.Tag{Time: 123456, Microstep: 1}
	client.SetBindingHook(&stampHook{tag: reqTag})

	type outcome struct {
		payload []byte
		tag     *logical.Tag
		err     error
	}
	done := make(chan outcome, 1)
	client.Spawn("main", func(c *Ctx) {
		px := client.StaticProxy(udpEchoIface, 1, server.Addr())
		fut := px.Call("echo", []byte("ping"))
		payload, err := fut.GetTimeout(c.Process(), 5*logical.Second)
		var tag *logical.Tag
		if r, ok := fut.Result(); ok {
			tag = r.Tag
		}
		done <- outcome{payload: payload, tag: tag, err: err}
	})

	start()

	var out outcome
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("round trip did not complete")
	}
	if out.err != nil {
		t.Fatalf("call failed: %v", out.err)
	}
	if !bytes.Equal(out.payload, []byte("re:ping")) {
		t.Errorf("payload = %q", out.payload)
	}

	// The request tag crossed the wire into the server handler...
	gotServer := <-serverTags
	if gotServer != reqTag {
		t.Errorf("server saw tag %v, want %v", gotServer, reqTag)
	}
	// ...and the delayed tag rode the response trailer back.
	want := reqTag.Delay(deadline)
	if out.tag == nil || *out.tag != want {
		t.Errorf("response tag = %v, want %v", out.tag, want)
	}

	if sent, received := clientMsgs.sent.Load(), clientMsgs.received.Load(); sent < 1 || received < 1 {
		t.Errorf("client endpoint sent %d and received %d messages", sent, received)
	}
}

// A UDP runtime's endpoint wrapper (Config.WrapEndpoint) sees inbound
// messages on the kernel goroutine: while the driver is not running, a
// datagram waits in its injection queue, and it reaches the wrapper
// once the driver runs.
func TestUDPWrappedEndpointDeliversOnKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets skipped with -short")
	}
	drv := des.NewRealTime(des.NewKernel(1))
	var msgs msgCounter
	rt, err := NewUDPRuntime(drv, "127.0.0.1:0", Config{Name: "server", Tagged: true, WrapEndpoint: msgs.wrap})
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	t.Cleanup(func() { rt.Close() })
	raw, err := someip.ListenUDP("127.0.0.1:0", true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	if err := raw.Send(rt.Addr(), &someip.Message{Service: udpEchoIface.ID, Method: 1, Client: 1, Session: 1,
		InterfaceVersion: 1, Type: someip.TypeRequestNoReturn}); err != nil {
		t.Fatal(err)
	}

	time.Sleep(100 * time.Millisecond)
	if n := msgs.received.Load(); n != 0 {
		t.Fatalf("the wrapper handled %d messages before the driver ran", n)
	}
	go drv.Run()
	t.Cleanup(func() {
		drv.Stop()
		<-drv.Done()
		rt.Kernel().Shutdown()
	})
	for deadline := time.Now().Add(5 * time.Second); msgs.received.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the wrapper never saw the datagram after the driver started")
		}
	}
}

func TestUDPRuntimeUnknownServiceError(t *testing.T) {
	server, client, start := udpPair(t, nil)
	_ = server // no skeleton offered: server answers E_UNKNOWN_SERVICE

	done := make(chan error, 1)
	client.Spawn("main", func(c *Ctx) {
		px := client.StaticProxy(udpEchoIface, 1, server.Addr())
		_, err := px.Call("echo", []byte("x")).GetTimeout(c.Process(), 5*logical.Second)
		done <- err
	})
	start()

	select {
	case err := <-done:
		re, ok := err.(*RemoteError)
		if !ok || re.Code != someip.EUnknownService {
			t.Errorf("err = %v, want E_UNKNOWN_SERVICE", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no response")
	}
}

func TestUDPRuntimeHasNoSD(t *testing.T) {
	_, client, _ := udpPair(t, nil)
	if client.sd != nil {
		t.Fatal("UDP runtime should have no SD agent")
	}
	px := client.StaticProxy(udpEchoIface, 1, client.Addr())
	if err := px.SubscribeID(someip.EventID(1), 1, func(*Ctx, []byte) {}); err == nil {
		t.Error("SubscribeID should fail without an SD substrate")
	}
	defer func() {
		if recover() == nil {
			t.Error("FindService should panic without an SD substrate")
		}
	}()
	client.FindService(udpEchoIface, 1, func(*Proxy) {})
}
