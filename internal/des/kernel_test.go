package des

import (
	"testing"

	"repro/internal/logical"
)

func TestKernelFiresInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	k.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if k.Now() != 30 {
		t.Errorf("now = %v, want 30", k.Now())
	}
}

func TestKernelTieBreakBySequence(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(10, func() { order = append(order, 1) })
	k.At(10, func() { order = append(order, 2) })
	k.At(10, func() { order = append(order, 3) })
	k.RunAll()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v, want [1 2 3]", order)
		}
	}
}

func TestKernelPastSchedulingClampsToNow(t *testing.T) {
	k := NewKernel(1)
	var at logical.Time
	k.At(100, func() {
		k.At(50, func() { at = k.Now() }) // in the past
	})
	k.RunAll()
	if at != 100 {
		t.Errorf("past event fired at %v, want 100", at)
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.At(10, func() { fired = true })
	e.Cancel()
	k.RunAll()
	if fired {
		t.Error("canceled event fired")
	}
	e.Cancel() // canceled twice: a no-op
	if e.pos != -1 || k.Pending() != 0 {
		t.Errorf("second cancel: pos %d, pending %d; want -1, 0", e.pos, k.Pending())
	}
}

// TestCancelRemovesEvent pins that Cancel takes an event out of the
// kernel's queue at once: its position reads -1, NextEventTime names
// the next live event without discarding anything, and Pending stays
// exact.
func TestCancelRemovesEvent(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	fn := func() { fired++ }
	e10 := k.At(10, fn)
	e12 := k.At(12, fn)
	e20 := k.At(20, fn)
	e30 := k.At(30, fn)
	daemon := k.AfterDaemon(25, fn)
	check := func(step string, queued, pending int, next logical.Time) {
		t.Helper()
		if len(k.queue.h) != queued || k.Pending() != pending {
			t.Fatalf("%s: queue %d, pending %d; want %d, %d",
				step, len(k.queue.h), k.Pending(), queued, pending)
		}
		if at, ok := k.NextEventTime(); !ok || at != next {
			t.Fatalf("%s: NextEventTime = (%v, %v), want (%v, true)", step, at, ok, next)
		}
		// The query may not have dropped anything.
		if len(k.queue.h) != queued {
			t.Fatalf("%s: NextEventTime changed the queue", step)
		}
	}
	canceled := func(step string, e *Event) {
		t.Helper()
		if e.pos != -1 {
			t.Fatalf("%s: canceled event still indexed: pos %d", step, e.pos)
		}
	}
	check("scheduled", 5, 4, 10)
	e10.Cancel()
	canceled("head canceled", e10)
	check("head canceled", 4, 3, 12)
	e10.Cancel()
	canceled("second cancel", e10)
	check("second cancel", 4, 3, 12)
	e12.Cancel()
	canceled("new head canceled", e12)
	check("new head canceled", 3, 2, 20)
	e30.Cancel() // not at the head
	canceled("tail canceled", e30)
	check("tail canceled", 2, 1, 20)
	daemon.Cancel()
	canceled("daemon canceled", daemon)
	check("daemon canceled", 1, 1, 20)
	k.RunAll()
	if fired != 1 || k.Pending() != 0 || len(k.queue.h) != 0 {
		t.Fatalf("after run: fired %d, pending %d, queue %d; want 1, 0, 0",
			fired, k.Pending(), len(k.queue.h))
	}
	if e20.pos != -1 {
		t.Fatalf("fired event: pos %d, want -1", e20.pos)
	}
	e20.Cancel() // canceling a fired event is a no-op
	if k.Pending() != 0 {
		t.Fatalf("canceling a fired event: pending %d, want 0", k.Pending())
	}
}

// TestCancelKeepsHeapOrder cancels a seeded random half of many queued
// events from arbitrary heap positions and checks that the survivors
// fire in (time, sequence) order and nothing canceled fires.
func TestCancelKeepsHeapOrder(t *testing.T) {
	k := NewKernel(1)
	rng := NewRand(9)
	type ev struct {
		at  logical.Time
		seq int
	}
	var got []ev
	var handles []*Event
	for i := 0; i < 400; i++ {
		at, seq := logical.Time(rng.Int63n(50)), i
		handles = append(handles, k.At(at, func() { got = append(got, ev{at, seq}) }))
	}
	live := 0
	canceled := make([]bool, len(handles))
	for i, h := range handles {
		if rng.Int63n(2) == 0 {
			h.Cancel()
			canceled[i] = true
		} else {
			live++
		}
	}
	if len(k.queue.h) != live || k.Pending() != live {
		t.Fatalf("queue %d, pending %d; want %d each", len(k.queue.h), k.Pending(), live)
	}
	k.RunAll()
	if len(got) != live {
		t.Fatalf("%d events fired, want %d", len(got), live)
	}
	for i, g := range got {
		if canceled[g.seq] {
			t.Fatalf("canceled event %d fired", g.seq)
		}
		if i > 0 {
			if a := got[i-1]; a.at > g.at || a.at == g.at && a.seq > g.seq {
				t.Fatalf("fired out of order at %d: %v then %v", i, a, g)
			}
		}
	}
}

func TestKernelRunHorizon(t *testing.T) {
	k := NewKernel(1)
	fired := []logical.Time{}
	k.At(10, func() { fired = append(fired, 10) })
	k.At(20, func() { fired = append(fired, 20) })
	k.Run(15)
	if len(fired) != 1 || fired[0] != 10 {
		t.Errorf("fired = %v, want [10]", fired)
	}
	// Continue past the horizon.
	k.RunAll()
	if len(fired) != 2 {
		t.Errorf("fired = %v, want both", fired)
	}
}

func TestKernelQuiescentAdvancesToHorizon(t *testing.T) {
	k := NewKernel(1)
	k.Run(500)
	if k.Now() != 500 {
		t.Errorf("now = %v, want 500", k.Now())
	}
}

func TestKernelAfter(t *testing.T) {
	k := NewKernel(1)
	var at logical.Time
	k.At(40, func() {
		k.After(10, func() { at = k.Now() })
	})
	k.RunAll()
	if at != 50 {
		t.Errorf("After fired at %v, want 50", at)
	}
}

func TestKernelEventsFired(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 5; i++ {
		k.At(logical.Time(i), func() {})
	}
	k.RunAll()
	if k.EventsFired() != 5 {
		t.Errorf("EventsFired = %d, want 5", k.EventsFired())
	}
}

func TestKernelDeterministicReplay(t *testing.T) {
	run := func(seed uint64) []int64 {
		k := NewKernel(seed)
		rng := k.Rand("gen")
		var trace []int64
		var rec func()
		n := 0
		rec = func() {
			trace = append(trace, int64(k.Now()))
			n++
			if n < 200 {
				k.After(logical.Duration(rng.Range(1, 100)), rec)
			}
		}
		k.At(0, rec)
		k.RunAll()
		return trace
	}
	a := run(42)
	b := run(42)
	c := run(43)
	if len(a) != len(b) {
		t.Fatal("same seed traces differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed traces differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}
