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
	if !e.Canceled() {
		t.Error("Canceled() should be true")
	}
}

// TestCancelRemovesEvent pins that Cancel takes an event out of both the
// main queue and the emit shadow heap at once, on a kernel of a
// 2-partition federation (where the shadow heap is kept): the next-time
// queries name the next live event without discarding anything, and
// Pending stays exact.
func TestCancelRemovesEvent(t *testing.T) {
	f := NewFederation(1, 2)
	defer f.Shutdown()
	k := f.Kernel(0)
	fired := 0
	fn := func() { fired++ }
	e10 := k.At(10, fn)
	local := k.post(nil, 12, Call, fn, false, false, true) // never emits
	e20 := k.At(20, fn)
	e30 := k.At(30, fn)
	daemon := k.AfterDaemon(25, fn)
	check := func(step string, queued, emit, pending int, next, nextEmit logical.Time) {
		t.Helper()
		if len(k.queue.h) != queued || len(k.emit.h) != emit || k.Pending() != pending {
			t.Fatalf("%s: queue %d, emit %d, pending %d; want %d, %d, %d",
				step, len(k.queue.h), len(k.emit.h), k.Pending(), queued, emit, pending)
		}
		if at, ok := k.NextEventTime(); !ok || at != next {
			t.Fatalf("%s: NextEventTime = (%v, %v), want (%v, true)", step, at, ok, next)
		}
		if at, ok := k.NextEmitTime(); !ok || at != nextEmit {
			t.Fatalf("%s: NextEmitTime = (%v, %v), want (%v, true)", step, at, ok, nextEmit)
		}
		// Neither query may have dropped anything.
		if len(k.queue.h) != queued || len(k.emit.h) != emit {
			t.Fatalf("%s: a next-time query changed the queues", step)
		}
	}
	check("scheduled", 5, 4, 4, 10, 10)
	e10.Cancel()
	if e10.pos != [2]int{-1, -1} {
		t.Fatalf("canceled event still indexed: pos %v", e10.pos)
	}
	check("head canceled", 4, 3, 3, 12, 20)
	e10.Cancel()
	check("second cancel", 4, 3, 3, 12, 20)
	local.Cancel()
	check("local canceled", 3, 3, 2, 20, 20)
	e30.Cancel() // not at the head
	check("tail canceled", 2, 2, 1, 20, 20)
	daemon.Cancel()
	check("daemon canceled", 1, 1, 1, 20, 20)
	f.RunAll()
	if fired != 1 || k.Pending() != 0 || len(k.queue.h) != 0 || len(k.emit.h) != 0 {
		t.Fatalf("after run: fired %d, pending %d, queue %d, emit %d; want 1, 0, 0, 0",
			fired, k.Pending(), len(k.queue.h), len(k.emit.h))
	}
	if e20.Canceled() {
		t.Fatal("live event reports canceled")
	}
}

// TestCancelKeepsHeapOrder cancels a seeded random half of many queued
// events from arbitrary heap positions and checks that the survivors
// fire in (time, sequence) order and nothing canceled fires.
func TestCancelKeepsHeapOrder(t *testing.T) {
	f := NewFederation(1, 2)
	defer f.Shutdown()
	k := f.Kernel(0)
	rng := NewRand(9)
	type ev struct {
		at  logical.Time
		seq int
	}
	var got []ev
	var handles []*Event
	for i := 0; i < 400; i++ {
		at, seq := logical.Time(rng.Intn(50)), i
		handles = append(handles, k.At(at, func() { got = append(got, ev{at, seq}) }))
	}
	live := 0
	for _, h := range handles {
		if rng.Intn(2) == 0 {
			h.Cancel()
		} else {
			live++
		}
	}
	if len(k.queue.h) != live || len(k.emit.h) != live || k.Pending() != live {
		t.Fatalf("queue %d, emit %d, pending %d; want %d each", len(k.queue.h), len(k.emit.h), k.Pending(), live)
	}
	f.RunAll()
	if len(got) != live {
		t.Fatalf("%d events fired, want %d", len(got), live)
	}
	for i, g := range got {
		if handles[g.seq].Canceled() {
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
