package simnet

import (
	"bytes"
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
)

func newNet(seed uint64) (*des.Kernel, *Network) {
	k := des.NewKernel(seed)
	n := NewNetwork(k, Config{})
	return k, n
}

func TestSendReceiveAcrossHosts(t *testing.T) {
	k, n := newNet(1)
	h1 := n.AddHost("p1", nil)
	h2 := n.AddHost("p2", nil)
	a := h1.MustBind(1000)
	b := h2.MustBind(2000)

	var got Datagram
	b.OnReceive(func(dg Datagram) { got = dg })
	k.At(0, func() { a.Send(b.Addr(), []byte("hello")) })
	k.RunAll()

	if !bytes.Equal(got.Payload, []byte("hello")) {
		t.Errorf("payload = %q", got.Payload)
	}
	if got.Src != a.Addr() || got.Dst != b.Addr() {
		t.Errorf("addrs: src %v dst %v", got.Src, got.Dst)
	}
	if k.Now() != logical.Time(50*logical.Microsecond) {
		t.Errorf("delivery at %v, want default 50µs", k.Now())
	}
}

func TestLoopbackFasterThanNetwork(t *testing.T) {
	k, n := newNet(1)
	h := n.AddHost("p1", nil)
	a := h.MustBind(1)
	b := h.MustBind(2)
	var at logical.Time
	b.OnReceive(func(Datagram) { at = k.Now() })
	k.At(0, func() { a.Send(b.Addr(), []byte("x")) })
	k.RunAll()
	if at != logical.Time(5*logical.Microsecond) {
		t.Errorf("loopback delivery at %v, want 5µs", at)
	}
}

func TestPayloadIsCopied(t *testing.T) {
	k, n := newNet(1)
	h := n.AddHost("p", nil)
	a := h.MustBind(1)
	b := h.MustBind(2)
	buf := []byte("aaaa")
	var got Datagram
	b.OnReceive(func(dg Datagram) { got = dg })
	k.At(0, func() {
		a.Send(b.Addr(), buf)
		copy(buf, "bbbb") // mutate after send
	})
	k.RunAll()
	if string(got.Payload) != "aaaa" {
		t.Errorf("payload mutated in flight: %q", got.Payload)
	}
}

func TestSendToUnboundPortDrops(t *testing.T) {
	k, n := newNet(1)
	h1 := n.AddHost("p1", nil)
	h2 := n.AddHost("p2", nil)
	a := h1.MustBind(1)
	k.At(0, func() { a.Send(Addr{Host: h2.ID(), Port: 9}, []byte("x")) })
	k.RunAll()
	if n.Dropped() != 1 || n.Delivered() != 0 {
		t.Errorf("dropped=%d delivered=%d", n.Dropped(), n.Delivered())
	}
}

func TestSendToUnknownHostDrops(t *testing.T) {
	k, n := newNet(1)
	h1 := n.AddHost("p1", nil)
	a := h1.MustBind(1)
	k.At(0, func() { a.Send(Addr{Host: 99, Port: 9}, []byte("x")) })
	k.RunAll()
	if n.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", n.Dropped())
	}
}

func TestClosedEndpointDrops(t *testing.T) {
	k, n := newNet(1)
	h := n.AddHost("p", nil)
	a := h.MustBind(1)
	b := h.MustBind(2)
	b.Close()
	k.At(0, func() { a.Send(Addr{Host: h.ID(), Port: 2}, []byte("x")) })
	k.RunAll()
	if n.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", n.Dropped())
	}
}

func TestBindDuplicatePortFails(t *testing.T) {
	_, n := newNet(1)
	h := n.AddHost("p", nil)
	h.MustBind(5)
	if _, err := h.Bind(5); err == nil {
		t.Error("duplicate bind should fail")
	}
}

func TestBindEphemeral(t *testing.T) {
	_, n := newNet(1)
	h := n.AddHost("p", nil)
	e1, err := h.Bind(0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := h.Bind(0)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Addr().Port < 49152 || e2.Addr().Port < 49152 {
		t.Error("ephemeral ports below 49152")
	}
	if e1.Addr().Port == e2.Addr().Port {
		t.Error("ephemeral ports collide")
	}
}

func TestOnReceiveCallback(t *testing.T) {
	k, n := newNet(1)
	h := n.AddHost("p", nil)
	a := h.MustBind(1)
	b := h.MustBind(2)
	var got []byte
	b.OnReceive(func(dg Datagram) { got = dg.Payload })
	k.At(0, func() { a.Send(b.Addr(), []byte("cb")) })
	k.RunAll()
	if string(got) != "cb" {
		t.Errorf("callback got %q", got)
	}
	if n.Delivered() != 1 || n.Dropped() != 0 {
		t.Errorf("delivered=%d dropped=%d, want 1/0", n.Delivered(), n.Dropped())
	}
}

// A datagram for a bound endpoint with no receive callback is dropped.
func TestNoReceiverDrops(t *testing.T) {
	k, n := newNet(1)
	h := n.AddHost("p", nil)
	a := h.MustBind(1)
	b := h.MustBind(2)
	k.At(0, func() { a.Send(b.Addr(), []byte("x")) })
	k.RunAll()
	if n.Delivered() != 0 || n.Dropped() != 1 {
		t.Errorf("delivered=%d dropped=%d, want 0/1", n.Delivered(), n.Dropped())
	}
}

// Closing an endpoint withdraws its topic interests: a later SendTopic
// neither fans out to it nor counts a drop for it.
func TestCloseLeavesTopics(t *testing.T) {
	k, n := newNet(1)
	h1 := n.AddHost("p1", nil)
	h2 := n.AddHost("p2", nil)
	src := h1.MustBind(1)
	member := h2.MustBind(2)
	member.OnReceive(func(Datagram) {})
	n.JoinTopic(testGroup, 7, member)
	member.Close()
	if got := len(n.topics[topicKey{testGroup, 7}]); got != 0 {
		t.Errorf("members after Close = %d, want 0", got)
	}
	k.At(0, func() { src.SendTopic(testGroup, 7, []byte("x")) })
	k.RunAll()
	if _, fanout := n.ControlPlane(); fanout != 0 || n.Dropped() != 0 {
		t.Errorf("after Close: fanout=%d dropped=%d, want 0/0", fanout, n.Dropped())
	}
}

// TestBindAllocs pins a Bind + Close cycle at one allocation: the
// endpoint itself.
func TestBindAllocs(t *testing.T) {
	_, n := newNet(1)
	h := n.AddHost("p", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		h.MustBind(7).Close()
	})
	if allocs > 1 {
		t.Errorf("Bind+Close allocates %.2f times, want <= 1", allocs)
	}
}

func TestInOrderDeliverySameLatency(t *testing.T) {
	k, n := newNet(1)
	h1 := n.AddHost("p1", nil)
	h2 := n.AddHost("p2", nil)
	a := h1.MustBind(1)
	b := h2.MustBind(2)
	var got []byte
	b.OnReceive(func(dg Datagram) { got = append(got, dg.Payload[0]) })
	k.At(0, func() {
		for _, c := range []byte("abcde") {
			a.Send(b.Addr(), []byte{c})
		}
	})
	k.RunAll()
	if string(got) != "abcde" {
		t.Errorf("order = %q, want abcde", got)
	}
}

func TestJitterLatencyReordersPackets(t *testing.T) {
	k := des.NewKernel(7)
	n := NewNetwork(k, Config{
		DefaultLatency: &JitterLatency{
			Base:  logical.Duration(100 * logical.Microsecond),
			Sigma: logical.Duration(80 * logical.Microsecond),
			Rng:   k.Rand("lat"),
		},
	})
	h1 := n.AddHost("p1", nil)
	h2 := n.AddHost("p2", nil)
	a := h1.MustBind(1)
	b := h2.MustBind(2)
	var got []byte
	b.OnReceive(func(dg Datagram) { got = append(got, dg.Payload[0]) })
	k.At(0, func() {
		for i := byte(0); i < 50; i++ {
			a.Send(b.Addr(), []byte{i})
		}
	})
	k.RunAll()
	if len(got) != 50 {
		t.Fatalf("delivered %d/50", len(got))
	}
	reordered := false
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Error("high jitter should reorder some packets (nondeterminism source #3)")
	}
}

func TestJitterLatencyDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []logical.Time {
		k := des.NewKernel(seed)
		n := NewNetwork(k, Config{
			DefaultLatency: &JitterLatency{
				Base:  logical.Duration(time100()),
				Sigma: logical.Duration(30 * logical.Microsecond),
				Rng:   k.Rand("lat"),
			},
		})
		h1 := n.AddHost("p1", nil)
		h2 := n.AddHost("p2", nil)
		a := h1.MustBind(1)
		b := h2.MustBind(2)
		var times []logical.Time
		b.OnReceive(func(dg Datagram) { times = append(times, k.Now()) })
		for i := 0; i < 20; i++ {
			k.At(logical.Time(i)*logical.Time(logical.Millisecond), func() {
				a.Send(b.Addr(), []byte("x"))
			})
		}
		k.RunAll()
		return times
	}
	a, b := run(11), run(11)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed delivery schedules differ")
		}
	}
}

func time100() logical.Duration { return 100 * logical.Microsecond }

func TestPerByteSerializationCost(t *testing.T) {
	m := &JitterLatency{Base: 0, PerByte: 8} // 8ns/byte ≈ 1 Gbit/s
	if got := m.Latency(1000); got != 8000 {
		t.Errorf("latency = %v, want 8000ns", got)
	}
}

func TestSwitchDelayAddsOnlyAcrossHosts(t *testing.T) {
	k := des.NewKernel(1)
	n := NewNetwork(k, Config{
		DefaultLatency: FixedLatency(10),
		SwitchDelay:    100,
	})
	h1 := n.AddHost("p1", nil)
	h2 := n.AddHost("p2", nil)
	a := h1.MustBind(1)
	b := h2.MustBind(2)
	c := h1.MustBind(3)
	var across, local logical.Time
	b.OnReceive(func(Datagram) { across = k.Now() })
	c.OnReceive(func(Datagram) { local = k.Now() })
	k.At(0, func() {
		a.Send(b.Addr(), []byte("x"))
		a.Send(c.Addr(), []byte("x"))
	})
	k.RunAll()
	if across != 110 {
		t.Errorf("across = %v, want 110", across)
	}
	if local != logical.Time(5*logical.Microsecond) {
		t.Errorf("local = %v, want loopback 5µs", local)
	}
}

func TestDropRate(t *testing.T) {
	k := des.NewKernel(3)
	n := NewNetwork(k, Config{Faults: &FaultPlan{DropRate: 0.5}})
	h1 := n.AddHost("p1", nil)
	h2 := n.AddHost("p2", nil)
	a := h1.MustBind(1)
	b := h2.MustBind(2)
	received := 0
	b.OnReceive(func(Datagram) { received++ })
	k.At(0, func() {
		for i := 0; i < 1000; i++ {
			a.Send(b.Addr(), []byte("x"))
		}
	})
	k.RunAll()
	if received < 400 || received > 600 {
		t.Errorf("received %d/1000 at 50%% drop", received)
	}
	if n.Dropped()+uint64(received) != 1000 {
		t.Errorf("dropped %d + received %d != 1000", n.Dropped(), received)
	}
}

func TestHostClockAttachment(t *testing.T) {
	k, _ := newNet(1)
	clk := k.NewLocalClock(des.ClockConfig{}, nil)
	n := NewNetwork(k, Config{})
	h := n.AddHost("p", clk)
	if h.Clock() != clk {
		t.Errorf("host clock = %p, want the attached %p", h.Clock(), clk)
	}
}
