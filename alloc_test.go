package dear_test

import (
	"testing"

	"repro/internal/ara"
	"repro/internal/des"
	"repro/internal/simnet"
)

// TestTransientPathZeroAlloc pins the zero-allocation claims of the
// closure-free hot paths: once pools are warm, a schedule+fire round
// trip on simnet datagram delivery and a future resolution with
// registered callbacks must not allocate at all. These
// are exact pins, not budgets — a single stray closure or interface box
// on any of these paths fails the gate.
func TestTransientPathZeroAlloc(t *testing.T) {
	const runs = 100

	t.Run("SimnetDeliver", func(t *testing.T) {
		k := des.NewKernel(1)
		n := simnet.NewNetwork(k, simnet.Config{})
		src := n.AddHost("src", nil)
		dst := n.AddHost("dst", nil)
		from, err := src.Bind(1000)
		if err != nil {
			t.Fatal(err)
		}
		to, err := dst.Bind(2000)
		if err != nil {
			t.Fatal(err)
		}
		received := 0
		to.OnReceive(func(simnet.Datagram) { received++ })
		// The empty payload isolates the delivery machinery from the
		// caller's payload copy (which is proportional to message size,
		// not a per-event overhead).
		if avg := testing.AllocsPerRun(runs, func() {
			from.Send(to.Addr(), nil)
			k.RunAll()
		}); avg != 0 {
			t.Errorf("simnet delivery schedule+fire allocates %.1f per op, want 0", avg)
		}
		if received != runs+1 {
			t.Fatalf("delivered %d of %d", received, runs+1)
		}
	})

	t.Run("FutureResolve", func(t *testing.T) {
		k := des.NewKernel(1)
		// Futures (and their callback registrations) are created outside
		// the measured region: the gate pins the resolution+delivery
		// round trip, not construction.
		fired := 0
		cb := func(ara.Result) { fired++ }
		futures := make([]*ara.Future, runs+1)
		for i := range futures {
			futures[i] = ara.NewFuture(k)
			futures[i].Then(cb)
		}
		i := 0
		if avg := testing.AllocsPerRun(runs, func() {
			futures[i].Resolve(ara.Result{})
			i++
			k.RunAll()
		}); avg != 0 {
			t.Errorf("future resolution schedule+fire allocates %.1f per op, want 0", avg)
		}
		if fired != runs+1 {
			t.Fatalf("fired %d of %d callbacks", fired, runs+1)
		}
	})
}
