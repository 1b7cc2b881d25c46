package des

import (
	"runtime"
	"testing"

	"repro/internal/logical"
)

func TestProcessSleep(t *testing.T) {
	k := NewKernel(1)
	var wakeTimes []logical.Time
	k.Spawn("sleeper", func(p *Process) {
		p.Sleep(10)
		wakeTimes = append(wakeTimes, p.Now())
		p.Sleep(25)
		wakeTimes = append(wakeTimes, p.Now())
	})
	k.RunAll()
	if len(wakeTimes) != 2 || wakeTimes[0] != 10 || wakeTimes[1] != 35 {
		t.Errorf("wakeTimes = %v, want [10 35]", wakeTimes)
	}
}

func TestProcessWaitUntil(t *testing.T) {
	k := NewKernel(1)
	var woke logical.Time
	k.Spawn("w", func(p *Process) {
		p.WaitUntil(77)
		woke = p.Now()
	})
	k.RunAll()
	if woke != 77 {
		t.Errorf("woke at %v, want 77", woke)
	}
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel(9)
		var trace []string
		k.Spawn("a", func(p *Process) {
			for i := 0; i < 3; i++ {
				p.Sleep(10)
				trace = append(trace, "a")
			}
		})
		k.Spawn("b", func(p *Process) {
			for i := 0; i < 3; i++ {
				p.Sleep(10)
				trace = append(trace, "b")
			}
		})
		k.RunAll()
		return trace
	}
	a := run()
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces differ: %v vs %v", a, b)
		}
	}
	// Process a was spawned first, so at equal times it runs first.
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("trace = %v, want %v", a, want)
		}
	}
}

func TestProcessParkUnpark(t *testing.T) {
	k := NewKernel(1)
	var got logical.Time
	p := k.Spawn("parked", func(p *Process) {
		if interrupted := p.Park(); interrupted {
			t.Error("Park reported interrupted for Unpark")
		}
		got = p.Now()
	})
	k.At(42, func() { p.Unpark() })
	k.RunAll()
	if got != 42 {
		t.Errorf("woke at %v, want 42", got)
	}
	if p.state != procDone {
		t.Error("process should be done")
	}
}

func TestProcessUnparkAt(t *testing.T) {
	k := NewKernel(1)
	var got logical.Time
	var firedAtWake uint64
	p := k.Spawn("parked", func(p *Process) {
		p.Park()
		got, firedAtWake = p.Now(), k.EventsFired()
	})
	k.At(10, func() { p.UnparkAt(100) })
	k.RunAll()
	// Spawn, the scheduling event, then the single wake event.
	if got != 100 || firedAtWake != 3 || k.EventsFired() != 3 {
		t.Errorf("woke at %v after %d events (%d total), want 100 after 3 (3 total)", got, firedAtWake, k.EventsFired())
	}

	// A time in the past wakes at the current time.
	k = NewKernel(1)
	p = k.Spawn("parked", func(p *Process) {
		p.Park()
		got = p.Now()
	})
	k.At(10, func() { p.UnparkAt(5) })
	k.RunAll()
	if got != 10 {
		t.Errorf("past UnparkAt woke at %v, want 10", got)
	}

	// The event is a no-op for a process that is not parked when it
	// fires: sleeping, or already done.
	k = NewKernel(1)
	p = k.Spawn("sleeper", func(p *Process) {
		p.Sleep(50)
		got = p.Now()
	})
	k.At(10, func() { p.UnparkAt(20) })
	k.At(60, func() { p.UnparkAt(70) })
	k.RunAll()
	if got != 50 || p.state != procDone || k.EventsFired() != 6 {
		t.Errorf("sleeper woke at %v (done=%v, %d events), want 50 (done, 6 events)", got, p.state == procDone, k.EventsFired())
	}
}

func TestProcessInterruptibleWaitInterrupted(t *testing.T) {
	k := NewKernel(1)
	var interrupted bool
	var at logical.Time
	p := k.Spawn("w", func(p *Process) {
		interrupted = p.WaitUntilInterruptible(1000)
		at = p.Now()
	})
	k.At(30, func() { p.Interrupt() })
	k.RunAll()
	if !interrupted {
		t.Error("wait should have been interrupted")
	}
	if at != 30 {
		t.Errorf("woke at %v, want 30", at)
	}
}

func TestProcessInterruptibleWaitTimesOut(t *testing.T) {
	k := NewKernel(1)
	var interrupted bool
	k.Spawn("w", func(p *Process) {
		interrupted = p.WaitUntilInterruptible(50)
	})
	k.RunAll()
	if interrupted {
		t.Error("wait should have timed out, not been interrupted")
	}
	if k.Now() != 50 {
		t.Errorf("now = %v, want 50", k.Now())
	}
}

func TestProcessInterruptAfterWakeIsNoop(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("w", func(p *Process) {
		p.WaitUntilInterruptible(10)
		p.Sleep(100) // plain sleep; late interrupt must not disturb it
	})
	k.At(10, func() { p.Interrupt() }) // delivered after the wait finished
	k.RunAll()
	if k.Now() != 110 {
		t.Errorf("now = %v, want 110", k.Now())
	}
}

func TestSpawnAtStartsLater(t *testing.T) {
	k := NewKernel(1)
	var start logical.Time
	k.SpawnAt(500, "late", func(p *Process) { start = p.Now() })
	k.RunAll()
	if start != 500 {
		t.Errorf("started at %v, want 500", start)
	}
}

func TestShutdownUnblocksProcesses(t *testing.T) {
	k := NewKernel(1)
	cleanedUp := false
	k.Spawn("stuck", func(p *Process) {
		defer func() {
			// The Killed panic must propagate, but deferred cleanup runs.
			cleanedUp = true
			if r := recover(); r != nil {
				panic(r)
			}
		}()
		p.Park() // never unparked
	})
	k.RunAll()
	k.Shutdown()
	if !cleanedUp {
		t.Error("deferred cleanup did not run on Shutdown")
	}
}

func TestShutdownUnblocksSleepers(t *testing.T) {
	k := NewKernel(1)
	done := false
	k.Spawn("sleeper", func(p *Process) {
		defer func() {
			done = true
			if r := recover(); r != nil {
				if _, ok := r.(Killed); !ok {
					t.Errorf("unexpected panic %v", r)
				}
				panic(r)
			}
		}()
		p.Sleep(3600 * logical.Second)
	})
	k.Run(10)
	k.Shutdown()
	if !done {
		t.Error("sleeper not unwound")
	}
}

// Waiting until the current instant yields: events already scheduled
// at that time run before the process continues.
func TestProcessYield(t *testing.T) {
	k := NewKernel(1)
	var trace []string
	k.Spawn("a", func(p *Process) {
		trace = append(trace, "a1")
		p.WaitUntil(p.Now())
		trace = append(trace, "a2")
	})
	k.Spawn("b", func(p *Process) {
		trace = append(trace, "b1")
	})
	k.RunAll()
	want := []string{"a1", "b1", "a2"}
	if len(trace) != 3 || trace[0] != want[0] || trace[1] != want[1] || trace[2] != want[2] {
		t.Errorf("trace = %v, want %v", trace, want)
	}
}

// TestSpawnAllocs pins the allocations of a short process life on a warm
// kernel: Spawn of a body that sleeps once, then RunAll. The one is the
// Process: the body runs on the carrier the previous life left on the
// idle list, and the start and wake events reuse pooled and
// process-owned Event storage.
func TestSpawnAllocs(t *testing.T) {
	k := NewKernel(1)
	defer k.Shutdown()
	body := func(p *Process) { p.Sleep(logical.Microsecond) }
	cycle := func() {
		k.Spawn("p", body)
		k.RunAll()
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 1 {
		t.Errorf("Spawn+Sleep+RunAll allocates %v times, want 1", got)
	}
}

// TestInterruptibleWaitAllocs pins the idle reactor's cycle: a process
// waiting far in the future (WaitUntilInterruptible) is interrupted and
// waits again. Cancel dequeues the interrupted wake event, so the next
// wait reuses the process's wake-event storage: the cycle allocates
// nothing and the queue does not grow.
func TestInterruptibleWaitAllocs(t *testing.T) {
	k := NewKernel(1)
	defer k.Shutdown()
	far := logical.Time(1) << 60
	waiter := k.Spawn("waiter", func(p *Process) {
		for {
			p.WaitUntilInterruptible(far)
		}
	})
	cycle := func() {
		waiter.Interrupt()
		k.Run(k.Now())
	}
	k.Run(0)
	for i := 0; i < 10; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("interrupt + wait allocates %v times per cycle, want 0", got)
	}
	if len(k.queue.h) != 1 || k.Pending() != 1 {
		t.Errorf("after the cycles: %d queued, %d pending; want the one wake event", len(k.queue.h), k.Pending())
	}
}

// A body's panic surfaces from the Run call that resumed it, on the
// caller's goroutine, and its carrier is not reused.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("panicker", func(p *Process) {
		p.Sleep(5)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("Run panicked with %v, want boom", r)
			}
		}()
		k.RunAll()
		t.Error("Run returned normally")
	}()
	if p.state != procDone || len(k.idle) != 0 {
		t.Errorf("after the panic: done=%v, %d idle carriers; want done, none", p.state == procDone, len(k.idle))
	}
	k.Shutdown()
}

// A body's runtime.Goexit ends the goroutine that called Run, as t.FailNow
// in a body ends the test, and its carrier is not reused.
func TestProcessGoexitEndsRunCaller(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("exiter", func(p *Process) {
		p.Sleep(5)
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		k.RunAll()
		returned = true
	}()
	<-done
	if returned {
		t.Error("Run returned after the body's Goexit")
	}
	if p.state != procDone || len(k.idle) != 0 {
		t.Errorf("after the Goexit: done=%v, %d idle carriers; want done, none", p.state == procDone, len(k.idle))
	}
	k.Shutdown()
}

// A process started by Run on one goroutine is resumed by Run on others,
// one after another, and killed by Shutdown on yet another — the pattern
// of federation workers and RealTime drivers.
func TestProcessResumedAcrossGoroutines(t *testing.T) {
	k := NewKernel(1)
	var woke []logical.Time
	unwound := false
	k.Spawn("p", func(p *Process) {
		defer func() { unwound = true }()
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			woke = append(woke, p.Now())
		}
		p.Park()
	})
	for _, until := range []logical.Time{5, 15, 25, 35} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			k.Run(until)
		}()
		<-done
	}
	if len(woke) != 3 || woke[0] != 10 || woke[1] != 20 || woke[2] != 30 {
		t.Errorf("woke at %v, want [10 20 30]", woke)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		k.Shutdown()
	}()
	<-done
	if !unwound {
		t.Error("Shutdown on another goroutine did not unwind the parked body")
	}
}
