package someip

import (
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
)

// newLifecycleFixture builds a two-host network with a short offer TTL
// and a cyclic period *longer* than the TTL, so a silent provider's
// offer expires between announcements — the window the TTL machinery
// exists for. sd_test.go covers the codec; these tests cover the cache
// lifecycle: expiry, refresh and re-offer after a crash/restart.
func newLifecycleFixture(t *testing.T) *sdFixture {
	t.Helper()
	k := des.NewKernel(1)
	n := simnet.NewNetwork(k, simnet.Config{})
	h1 := n.AddHost("p1", nil)
	h2 := n.AddHost("p2", nil)
	cfg := AgentConfig{CyclicOfferPeriod: 10 * logical.Second, TTL: logical.Second}
	a1, err := NewAgent(h1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewAgent(h2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &sdFixture{k: k, net: n, h1: h1, h2: h2, a1: a1, a2: a2}
}

// An offer must expire from the consumer's cache once its TTL elapses
// without a refresh.
func TestOfferTTLExpiry(t *testing.T) {
	f := newLifecycleFixture(t)
	appEp := f.h1.MustBind(40000)
	// Interest-based SD: passive caching needs a declared interest.
	f.a2.Interest(testKey)
	f.k.At(0, func() { f.a1.Offer(testKey, 1, 0, appEp.Addr()) })

	at500ms := findAt(f.k, f.a2, testKey, logical.Time(500*logical.Millisecond))
	at1500ms := findAt(f.k, f.a2, testKey, logical.Time(1500*logical.Millisecond))
	f.k.Run(logical.Time(2 * logical.Second))
	if !at500ms.cached {
		t.Fatal("offer not cached inside its TTL")
	}
	if at1500ms.cached {
		t.Fatal("offer still cached after TTL expiry without refresh")
	}
}

// A cyclic refresh inside the TTL must keep the entry alive: expiry is
// armed per offer, not per first discovery.
func TestOfferTTLRefreshedByCyclicOffer(t *testing.T) {
	f := newLifecycleFixture(t)
	// Period (600ms) < TTL (1s): the cache must never expire.
	a1, err := NewAgent(f.h1, AgentConfig{CyclicOfferPeriod: 600 * logical.Millisecond, TTL: logical.Second})
	if err != nil {
		t.Fatal(err)
	}
	appEp := f.h1.MustBind(40000)
	f.a2.Interest(testKey)
	f.k.At(0, func() { a1.Offer(testKey, 1, 0, appEp.Addr()) })
	var probes []*findProbe
	for ms := 500; ms <= 3500; ms += 500 {
		probes = append(probes, findAt(f.k, f.a2, testKey, logical.Time(ms)*logical.Time(logical.Millisecond)))
	}
	f.k.Run(logical.Time(4 * logical.Second))
	for i, pr := range probes {
		if !pr.cached {
			t.Fatalf("cache expired at %dms despite cyclic refreshes inside the TTL", 500*(i+1))
		}
	}
}

// Under a provider crash the consumer's cache follows the provider's
// lifecycle: the entry expires by TTL (a crashed host sends no
// stop-offer), and the restarted provider's offer from a fresh endpoint
// replaces it.
func TestCacheFollowsCrashAndReoffer(t *testing.T) {
	f := newLifecycleFixture(t)
	appEp := f.h1.MustBind(40000)
	f.a2.Interest(testKey)
	f.k.At(0, func() { f.a1.Offer(testKey, 1, 0, appEp.Addr()) })
	// The provider platform dies silently at 500ms...
	f.h1.Crash(logical.Time(500 * logical.Millisecond))
	// ...and comes back at 3s with a rebuilt SD stack and a new offer.
	f.h1.Restart(logical.Time(3*logical.Second), func() {
		a1b, err := NewAgent(f.h1, AgentConfig{CyclicOfferPeriod: 10 * logical.Second, TTL: logical.Second})
		if err != nil {
			t.Error(err)
			return
		}
		appEp2 := f.h1.MustBind(40001)
		a1b.Offer(testKey, 1, 0, appEp2.Addr())
	})
	before := findAt(f.k, f.a2, testKey, logical.Time(100*logical.Millisecond))
	outage := findAt(f.k, f.a2, testKey, logical.Time(2*logical.Second))
	after := findAt(f.k, f.a2, testKey, logical.Time(3500*logical.Millisecond))
	f.k.Run(logical.Time(4 * logical.Second))
	if !before.cached || before.svc.Endpoint.(simnet.Addr).Port != 40000 {
		t.Fatalf("before the crash: cached %v, %+v", before.cached, before.svc)
	}
	if outage.cached {
		t.Fatal("crashed provider still cached after its TTL")
	}
	if !after.cached || after.svc.Endpoint.(simnet.Addr).Port != 40001 {
		t.Fatalf("after the restart: cached %v, %+v", after.cached, after.svc)
	}
}
