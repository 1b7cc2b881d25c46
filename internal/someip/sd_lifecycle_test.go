package someip

import (
	"testing"

	"repro/internal/logical"
	"repro/internal/simnet"
)

// These tests cover the cache lifecycle under the agent's 1-s cyclic
// offer and 3-s TTL: expiry, refresh and re-offer after a
// crash/restart; sd_test.go covers the codec. A provider is silenced
// by crashing its host, which sends no stop-offer, so the consumer
// learns of the loss only through TTL expiry.

// An offer must expire from the consumer's cache once its TTL elapses
// without a refresh.
func TestOfferTTLExpiry(t *testing.T) {
	f := newSDFixture(t)
	appEp := f.h1.MustBind(40000)
	// Interest-based SD: passive caching needs a declared interest.
	f.a2.Interest(testKey)
	f.k.At(0, func() { f.a1.Offer(testKey, 1, appEp.Addr()) })
	// The offer at 0 is the last before the provider falls silent.
	f.h1.Crash(logical.Time(500 * logical.Millisecond))

	at2500ms := findAt(f.k, f.a2, testKey, logical.Time(2500*logical.Millisecond))
	at3500ms := findAt(f.k, f.a2, testKey, logical.Time(3500*logical.Millisecond))
	f.k.Run(logical.Time(4 * logical.Second))
	if !at2500ms.cached {
		t.Fatal("offer not cached inside its TTL")
	}
	if at3500ms.cached {
		t.Fatal("offer still cached after TTL expiry without refresh")
	}
}

// A cyclic refresh must re-arm the expiry: the TTL counts from the
// latest offer, not from the first discovery.
func TestOfferTTLRefreshedByCyclicOffer(t *testing.T) {
	f := newSDFixture(t)
	appEp := f.h1.MustBind(40000)
	f.a2.Interest(testKey)
	f.k.At(0, func() { f.a1.Offer(testKey, 1, appEp.Addr()) })
	// Offers at 0, 1s and 2s reach the consumer; the provider dies
	// before the one at 3s.
	f.h1.Crash(logical.Time(2500 * logical.Millisecond))

	// 4.5s is past a TTL armed at the first discovery but inside the
	// one armed by the refresh at 2s.
	at4500ms := findAt(f.k, f.a2, testKey, logical.Time(4500*logical.Millisecond))
	at5500ms := findAt(f.k, f.a2, testKey, logical.Time(5500*logical.Millisecond))
	f.k.Run(logical.Time(6 * logical.Second))
	if !at4500ms.cached {
		t.Fatal("cache expired at 4.5s: the refresh at 2s did not re-arm the TTL")
	}
	if at5500ms.cached {
		t.Fatal("offer still cached after the TTL of the last refresh")
	}
}

// Under a provider crash the consumer's cache follows the provider's
// lifecycle: the entry expires by TTL (a crashed host sends no
// stop-offer), and the restarted provider's offer from a fresh endpoint
// replaces it. A Find made before the crash fires once: neither the
// expiry nor the re-offer calls it again.
func TestCacheFollowsCrashAndReoffer(t *testing.T) {
	f := newSDFixture(t)
	appEp := f.h1.MustBind(40000)
	f.a2.Interest(testKey)
	f.k.At(0, func() { f.a1.Offer(testKey, 1, appEp.Addr()) })
	findCalls := 0
	f.k.At(0, func() { f.a2.Find(testKey, func(RemoteService) { findCalls++ }) })
	// The provider platform dies silently at 500ms...
	f.h1.Crash(logical.Time(500 * logical.Millisecond))
	// ...and comes back at 4s with a rebuilt SD stack and a new offer.
	f.h1.Restart(logical.Time(4*logical.Second), func() {
		a1b, err := NewAgent(f.h1)
		if err != nil {
			t.Error(err)
			return
		}
		appEp2 := f.h1.MustBind(40001)
		a1b.Offer(testKey, 1, appEp2.Addr())
	})
	before := findAt(f.k, f.a2, testKey, logical.Time(100*logical.Millisecond))
	outage := findAt(f.k, f.a2, testKey, logical.Time(3500*logical.Millisecond))
	after := findAt(f.k, f.a2, testKey, logical.Time(4500*logical.Millisecond))
	f.k.Run(logical.Time(5 * logical.Second))
	if !before.cached || before.svc.Endpoint.(simnet.Addr).Port != 40000 {
		t.Fatalf("before the crash: cached %v, %+v", before.cached, before.svc)
	}
	if outage.cached {
		t.Fatal("crashed provider still cached after its TTL")
	}
	if !after.cached || after.svc.Endpoint.(simnet.Addr).Port != 40001 {
		t.Fatalf("after the restart: cached %v, %+v", after.cached, after.svc)
	}
	if findCalls != 1 {
		t.Fatalf("Find made before the crash fired %d times, want 1", findCalls)
	}
}
