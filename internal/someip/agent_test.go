package someip

import (
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
)

type sdFixture struct {
	k      *des.Kernel
	net    *simnet.Network
	h1, h2 *simnet.Host
	a1, a2 *Agent
}

func newSDFixture(t *testing.T) *sdFixture {
	t.Helper()
	k := des.NewKernel(1)
	n := simnet.NewNetwork(k, simnet.Config{})
	h1 := n.AddHost("p1", nil)
	h2 := n.AddHost("p2", nil)
	a1, err := NewAgent(h1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewAgent(h2)
	if err != nil {
		t.Fatal(err)
	}
	return &sdFixture{k: k, net: n, h1: h1, h2: h2, a1: a1, a2: a2}
}

var testKey = ServiceKey{Service: 0x1234, Instance: 1}

// findProbe is the outcome of one Find issued by findAt.
type findProbe struct {
	cached bool
	svc    RemoteService
}

// findAt issues a Find for key on a at time t and reports, once the
// kernel has run past t, whether the agent answered it from its cache:
// a cached entry's callback fires at t itself (a zero-delay event),
// while a miss waits at least one network hop for an offer, or forever.
func findAt(k *des.Kernel, a *Agent, key ServiceKey, t logical.Time) *findProbe {
	pr := &findProbe{}
	k.At(t, func() {
		a.Find(key, func(svc RemoteService) {
			if k.Now() == t {
				pr.cached, pr.svc = true, svc
			}
		})
	})
	return pr
}

func TestFindBeforeOffer(t *testing.T) {
	f := newSDFixture(t)
	appEp := f.h1.MustBind(40000)

	var found *RemoteService
	f.k.At(0, func() {
		f.a2.Find(testKey, func(svc RemoteService) { found = &svc })
	})
	f.k.At(logical.Time(10*logical.Millisecond), func() {
		f.a1.Offer(testKey, 1, appEp.Addr())
	})
	f.k.Run(logical.Time(logical.Second))
	if found == nil {
		t.Fatal("service not discovered")
	}
	if found.Endpoint != appEp.Addr() {
		t.Errorf("endpoint = %v, want %v", found.Endpoint, appEp.Addr())
	}
	if found.Key != testKey {
		t.Errorf("key = %v", found.Key)
	}
}

func TestFindAfterOfferUsesUnicastReply(t *testing.T) {
	f := newSDFixture(t)
	appEp := f.h1.MustBind(40000)
	f.k.At(0, func() { f.a1.Offer(testKey, 1, appEp.Addr()) })

	var found *RemoteService
	// Find starts long after the initial offer multicast; discovery must
	// still succeed via the unicast offer reply to FIND (not only via the
	// next cyclic offer).
	f.k.At(logical.Time(10*logical.Millisecond), func() {
		f.a2.Find(testKey, func(svc RemoteService) { found = &svc })
	})
	f.k.Run(logical.Time(100 * logical.Millisecond)) // < cyclic period
	if found == nil {
		t.Fatal("service not discovered via find")
	}
}

func TestFindCachedFiresImmediately(t *testing.T) {
	f := newSDFixture(t)
	appEp := f.h1.MustBind(40000)
	f.k.At(0, func() { f.a1.Offer(testKey, 1, appEp.Addr()) })
	f.k.Run(logical.Time(10 * logical.Millisecond))

	calls := 0
	f.k.At(f.k.Now(), func() {
		f.a2.Find(testKey, func(RemoteService) { calls++ })
	})
	f.k.Run(logical.Time(11 * logical.Millisecond))
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (cached)", calls)
	}
}

func TestLookup(t *testing.T) {
	f := newSDFixture(t)
	appEp := f.h1.MustBind(40000)
	// Passive caching requires declared interest: without a Find, the
	// consumer must opt in to the key's offer stream explicitly.
	f.a2.Interest(testKey)
	f.k.At(logical.Time(logical.Millisecond), func() { f.a1.Offer(testKey, 1, appEp.Addr()) })
	before := findAt(f.k, f.a2, testKey, 0)
	after := findAt(f.k, f.a2, testKey, logical.Time(10*logical.Millisecond))
	f.k.Run(logical.Time(20 * logical.Millisecond))
	if before.cached {
		t.Error("find before the offer answered from the cache")
	}
	if !after.cached || after.svc.Endpoint != appEp.Addr() {
		t.Errorf("find after the offer: cached %v, %+v", after.cached, after.svc)
	}
}

func TestStopOfferRemovesRemote(t *testing.T) {
	f := newSDFixture(t)
	appEp := f.h1.MustBind(40000)
	f.a2.Interest(testKey)
	f.k.At(0, func() { f.a1.Offer(testKey, 1, appEp.Addr()) })
	found := findAt(f.k, f.a2, testKey, logical.Time(5*logical.Millisecond))
	// A stop-offer is an offer entry with TTL 0; the consumer must drop
	// its entry on receipt, not at TTL expiry.
	f.k.At(logical.Time(10*logical.Millisecond), func() {
		stop := f.a1.offerEntry(f.a1.offers[testKey])
		stop.TTL = 0
		f.a1.sendTopic(consumerTopic(testKey), []Entry{stop})
	})
	gone := findAt(f.k, f.a2, testKey, logical.Time(20*logical.Millisecond))
	f.k.Run(logical.Time(30 * logical.Millisecond))
	if !found.cached {
		t.Fatal("not discovered")
	}
	if gone.cached {
		t.Error("stop-offer did not remove remote entry")
	}
}

// Without renewal an offer lives exactly its announced TTL from its
// arrival: the 3 wire seconds convert to the expiry instant to the
// nanosecond.
func TestOfferExpiresWithoutRenewal(t *testing.T) {
	f := newSDFixture(t)
	appEp := f.h1.MustBind(40000)
	ttl := logical.Duration(ttlSeconds) * logical.Second
	var before, at *findProbe
	// The find is issued before the offer, so its callback fires when
	// the offer arrives; the provider falls silent before renewing.
	f.a2.Find(testKey, func(RemoteService) {
		arrival := f.k.Now()
		before = findAt(f.k, f.a2, testKey, arrival.Add(ttl-1))
		at = findAt(f.k, f.a2, testKey, arrival.Add(ttl))
	})
	f.k.At(0, func() { f.a1.Offer(testKey, 1, appEp.Addr()) })
	f.h1.Crash(logical.Time(500 * logical.Millisecond))
	f.k.Run(logical.Time(4 * logical.Second))
	if before == nil {
		t.Fatal("not discovered")
	}
	if !before.cached {
		t.Error("offer expired before its TTL")
	}
	if at.cached {
		t.Error("offer did not expire at its TTL")
	}
}

func TestCyclicOfferKeepsAlive(t *testing.T) {
	f := newSDFixture(t)
	appEp := f.h1.MustBind(40000)
	f.a2.Interest(testKey)
	f.k.At(0, func() { f.a1.Offer(testKey, 1, appEp.Addr()) })
	// Probe at 5s: default TTL 3s, cyclic 1s — must still be known.
	probe := findAt(f.k, f.a2, testKey, logical.Time(5*logical.Second))
	f.k.Run(logical.Time(6 * logical.Second))
	if !probe.cached {
		t.Error("offer expired despite cyclic renewal")
	}
}

func TestSubscribeAndNotifySubscribers(t *testing.T) {
	f := newSDFixture(t)
	appEp := f.h1.MustBind(40000)
	notifyEp := f.h2.MustBind(41000)
	const eg = 0x10

	f.k.At(0, func() { f.a1.Offer(testKey, 1, appEp.Addr()) })
	f.k.At(logical.Time(5*logical.Millisecond), func() {
		f.a2.Find(testKey, func(RemoteService) {
			f.a2.Subscribe(testKey, eg, notifyEp.Addr())
		})
	})
	f.k.Run(logical.Time(100 * logical.Millisecond))

	subs := f.a1.Subscribers(testKey, eg)
	if len(subs) != 1 || subs[0] != notifyEp.Addr() {
		t.Errorf("Subscribers = %v", subs)
	}
}

// TestSubscribeNackedWhenOfferWithdrawn subscribes from a raw SD
// connection and decodes the provider's replies: the offering agent
// acks with a positive TTL, and after a crash a fresh agent on the same
// SD port, which has not offered the service, NACKs with TTL 0.
func TestSubscribeNackedWhenOfferWithdrawn(t *testing.T) {
	f := newSDFixture(t)
	appEp := f.h1.MustBind(40000)
	sdAddr := f.a1.conn.LocalAddr()
	rawEp := f.h2.MustBind(41000)
	raw := NewConn(rawEp, false)
	var replies []Entry
	raw.OnMessage(func(src Addr, m *Message) {
		if src != sdAddr || !m.IsSD() {
			t.Errorf("unexpected message from %v", src)
			return
		}
		entries, err := UnmarshalSD(m.Payload)
		if err != nil {
			t.Error(err)
			return
		}
		replies = append(replies, entries...)
	})
	subscribe := func() {
		err := raw.Send(sdAddr, NewSDMessage(1, []Entry{{
			Type: SubscribeEventgroup, Service: testKey.Service, Instance: testKey.Instance,
			Major: 1, TTL: ttlSeconds, Eventgroup: 1,
			Options: []Option{{Type: IPv4EndpointOption, Addr: rawEp.Addr(), Proto: UDPProto}},
		}}))
		if err != nil {
			t.Error(err)
		}
	}
	f.k.At(0, func() { f.a1.Offer(testKey, 1, appEp.Addr()) })
	f.k.At(logical.Time(5*logical.Millisecond), subscribe)
	// The provider crashes and comes back with a fresh agent on the same
	// SD port that has not offered yet.
	f.h1.Crash(logical.Time(10 * logical.Millisecond))
	f.h1.Restart(logical.Time(20*logical.Millisecond), func() {
		a1, err := NewAgent(f.h1)
		if err != nil {
			t.Error(err)
			return
		}
		if a1.conn.LocalAddr() != f.a1.conn.LocalAddr() {
			t.Errorf("restarted agent bound %v, want the old SD address %v", a1.conn.LocalAddr(), f.a1.conn.LocalAddr())
		}
	})
	f.k.At(logical.Time(30*logical.Millisecond), subscribe)
	f.k.Run(logical.Time(200 * logical.Millisecond))
	if len(replies) != 2 {
		t.Fatalf("got %d replies, want an ack and a NACK: %+v", len(replies), replies)
	}
	for i, e := range replies {
		if e.Type != SubscribeEventgroupAck || e.Service != testKey.Service || e.Instance != testKey.Instance || e.Eventgroup != 1 {
			t.Errorf("reply %d = %+v, want a SubscribeEventgroupAck for %v eventgroup 1", i, e, testKey)
		}
	}
	if replies[0].TTL == 0 {
		t.Error("the offering agent NACKed the subscription")
	}
	if replies[1].TTL != 0 {
		t.Errorf("an agent that does not offer the service acked with TTL %d; want a NACK (TTL 0)", replies[1].TTL)
	}
}

func TestUnsubscribeRemovesSubscriber(t *testing.T) {
	f := newSDFixture(t)
	appEp := f.h1.MustBind(40000)
	notifyEp := f.h2.MustBind(41000)
	const eg = 0x10
	f.k.At(0, func() { f.a1.Offer(testKey, 1, appEp.Addr()) })
	f.k.At(logical.Time(5*logical.Millisecond), func() {
		f.a2.Find(testKey, func(RemoteService) {
			f.a2.Subscribe(testKey, eg, notifyEp.Addr())
		})
	})
	f.k.Run(logical.Time(50 * logical.Millisecond))
	if len(f.a1.Subscribers(testKey, eg)) != 1 {
		t.Fatal("not subscribed")
	}
	// An unsubscribe is a subscribe entry with TTL 0.
	f.k.At(f.k.Now(), func() {
		f.a2.send(f.a1.conn.LocalAddr(), []Entry{{
			Type: SubscribeEventgroup, Service: testKey.Service, Instance: testKey.Instance,
			Major: 1, TTL: 0, Eventgroup: eg,
			Options: []Option{{Type: IPv4EndpointOption, Addr: notifyEp.Addr(), Proto: UDPProto}},
		}})
	})
	f.k.Run(logical.Time(100 * logical.Millisecond))
	if len(f.a1.Subscribers(testKey, eg)) != 0 {
		t.Error("unsubscribe did not remove subscriber")
	}
}

func TestSubscriptionRenewalKeepsSubscriberAlive(t *testing.T) {
	f := newSDFixture(t)
	appEp := f.h1.MustBind(40000)
	notifyEp := f.h2.MustBind(41000)
	const eg = 0x10
	f.k.At(0, func() { f.a1.Offer(testKey, 1, appEp.Addr()) })
	f.k.At(logical.Time(5*logical.Millisecond), func() {
		f.a2.Find(testKey, func(RemoteService) {
			f.a2.Subscribe(testKey, eg, notifyEp.Addr())
		})
	})
	// Probe well past the 3s TTL.
	probed := false
	f.k.At(logical.Time(8*logical.Second), func() {
		if len(f.a1.Subscribers(testKey, eg)) != 1 {
			t.Error("subscription expired despite renewal")
		}
		probed = true
	})
	f.k.Run(logical.Time(9 * logical.Second))
	if !probed {
		t.Fatal("probe did not run")
	}
}

func TestTwoServicesIndependent(t *testing.T) {
	f := newSDFixture(t)
	ep1 := f.h1.MustBind(40000)
	ep2 := f.h1.MustBind(40001)
	key2 := ServiceKey{Service: 0x5678, Instance: 1}
	f.a2.Interest(testKey)
	f.a2.Interest(key2)
	f.k.At(0, func() {
		f.a1.Offer(testKey, 1, ep1.Addr())
		f.a1.Offer(key2, 1, ep2.Addr())
	})
	p1 := findAt(f.k, f.a2, testKey, logical.Time(10*logical.Millisecond))
	p2 := findAt(f.k, f.a2, key2, logical.Time(10*logical.Millisecond))
	f.k.Run(logical.Time(20 * logical.Millisecond))
	if !p1.cached || !p2.cached {
		t.Fatal("not both discovered")
	}
	if p1.svc.Endpoint == p2.svc.Endpoint {
		t.Error("endpoints must differ")
	}
}
