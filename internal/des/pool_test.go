package des

import (
	"testing"

	"repro/internal/logical"
)

// Transient and handle-returning events must interleave in exactly the
// same (time, sequence) order, and canceling a handle — before or after
// it fires — must never disturb a recycled transient event.
func TestTransientEventOrderingAndCancelSafety(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.Post(10, Call, func() { order = append(order, 0) })
	e1 := k.At(10, func() { order = append(order, 1) })
	k.Post(10, Call, func() { order = append(order, 2) })
	e3 := k.At(5, func() { order = append(order, 3) })
	e3.Cancel()
	k.RunAll()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}

	// Stale cancel after firing: e1 has fired; its Event must not have
	// been recycled, so this cancel is a no-op...
	e1.Cancel()
	// ...and must not affect transient events scheduled afterwards, even
	// though the kernel is now reusing pooled Event structures.
	fired := 0
	for i := 0; i < 8; i++ {
		k.Post(k.Now().Add(logical.Microsecond), Call, func() { fired++ })
	}
	k.RunAll()
	if fired != 8 {
		t.Fatalf("stale Cancel disturbed pooled events: fired = %d", fired)
	}
}

func TestTransientEventsAreRecycled(t *testing.T) {
	k := NewKernel(1)
	// Prime the pool.
	for i := 0; i < 4; i++ {
		k.Post(k.Now().Add(1), Call, func() {})
	}
	k.RunAll()
	if len(k.free) == 0 {
		t.Fatal("no events recycled")
	}
	before := len(k.free)
	k.Post(k.Now().Add(1), Call, func() {})
	if len(k.free) != before-1 {
		t.Fatalf("schedule did not reuse the free list: %d -> %d", before, len(k.free))
	}
	k.RunAll()
	if len(k.free) != before {
		t.Fatalf("fired transient not returned to free list: %d != %d", len(k.free), before)
	}
}

// Self-rescheduling chain: the scheduling hot path now shared by every
// federated kernel. Transient scheduling should not allocate an Event per
// iteration once the pool is primed.
func BenchmarkKernelScheduleTransient(b *testing.B) {
	k := NewKernel(1)
	count := 0
	var next func()
	next = func() {
		count++
		if count < b.N {
			k.Post(k.Now().Add(1), Call, next)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Post(0, Call, next)
	k.RunAll()
}
