package someip

import (
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
)

// sdRing builds n platforms, each offering its own service instance and
// finding its ring successor's, runs the SD startup phase, and returns
// the control-plane fan-out (datagrams routed through multicast/topic
// membership lists).
func sdRing(t *testing.T, n int) uint64 {
	t.Helper()
	k := des.NewKernel(7)
	net := simnet.NewNetwork(k, simnet.Config{})
	agents := make([]*Agent, n)
	for i := 0; i < n; i++ {
		h := net.AddHost("plat", nil)
		a, err := NewAgent(h)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		ep := h.MustBind(40000)
		key := ServiceKey{Service: ServiceID(0x1000 + i), Instance: 1}
		k.At(0, func() { a.Offer(key, 1, ep.Addr()) })
	}
	found := 0
	for i := 0; i < n; i++ {
		i := i
		key := ServiceKey{Service: ServiceID(0x1000 + (i+1)%n), Instance: 1}
		k.At(logical.Time(logical.Millisecond), func() {
			agents[i].Find(key, func(RemoteService) { found++ })
		})
	}
	// Cover startup plus one cyclic offer round (period 1s).
	k.Run(logical.Time(1500 * logical.Millisecond))
	if found != n {
		t.Fatalf("n=%d: %d services discovered", n, found)
	}
	_, fanout := net.ControlPlane()
	return fanout
}

// The city-scale gate requires the SD control plane to be sub-quadratic
// in the platform count. With interest-based routing each offer reaches
// only its (single) interested consumer and each find only its (single)
// provider, so doubling the platforms should roughly double the
// fan-out — under all-pairs multicast it would quadruple.
func TestSDControlPlaneSubQuadratic(t *testing.T) {
	n1, n2 := 40, 80
	f1 := sdRing(t, n1)
	f2 := sdRing(t, n2)
	if f1 == 0 || f2 == 0 {
		t.Fatalf("no control-plane traffic measured (%d, %d)", f1, f2)
	}
	// Allow slack over perfectly linear growth, but reject anything
	// approaching the 4x of quadratic fan-out.
	if float64(f2) > 2.5*float64(f1) {
		t.Errorf("fan-out grew %d -> %d (%.2fx for 2x platforms): super-linear", f1, f2, float64(f2)/float64(f1))
	}
	// And the absolute count stays far below the all-pairs floor: every
	// startup offer alone used to cost (n-1) datagrams, i.e. >= n*(n-1)
	// for the offer wave.
	if f2 >= uint64(n2*(n2-1)) {
		t.Errorf("fan-out %d at n=%d is still all-pairs scale", f2, n2)
	}
}
