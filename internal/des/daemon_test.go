package des

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/logical"
)

func TestDaemonEventsDoNotKeepRunAlive(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		k.AfterDaemon(10, tick)
	}
	k.AfterDaemon(0, tick)
	// No non-daemon work: RunAll must terminate immediately.
	k.RunAll()
	if fired != 0 {
		t.Errorf("daemon fired %d times with no pending work", fired)
	}
}

func TestDaemonEventsInterleaveWithPendingWork(t *testing.T) {
	k := NewKernel(1)
	daemonFires := 0
	var tick func()
	tick = func() {
		daemonFires++
		k.AfterDaemon(10, tick)
	}
	k.AfterDaemon(0, tick)
	k.At(55, func() {}) // pending work at t=55
	k.RunAll()
	// Daemons at 0,10,20,30,40,50 fire before the work at 55 drains.
	if daemonFires != 6 {
		t.Errorf("daemon fired %d times, want 6", daemonFires)
	}
}

func TestDaemonCancelation(t *testing.T) {
	k := NewKernel(1)
	fired := false
	ev := k.AfterDaemon(5, func() { fired = true })
	ev.Cancel()
	k.At(10, func() {})
	k.RunAll()
	if fired {
		t.Error("canceled daemon fired")
	}
}

func TestCancelNonDaemonReleasesPending(t *testing.T) {
	k := NewKernel(1)
	ev := k.At(100, func() { t.Error("canceled event fired") })
	daemonRan := false
	k.AfterDaemon(5, func() { daemonRan = true })
	ev.Cancel()
	// With the only pending event canceled, Run must terminate without
	// firing the daemon.
	k.RunAll()
	if daemonRan {
		t.Error("daemon ran after pending work was canceled")
	}
}

func TestRunHorizonWithOnlyDaemonsAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	k.AfterDaemon(10, func() {})
	got := k.Run(logical.Time(500))
	if got != 500 {
		t.Errorf("Run returned %v, want horizon 500", got)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("p", func(p *Process) { p.Park() })
	k.RunAll()
	k.Shutdown()
	k.Shutdown() // second call must be harmless
}

// TestShutdownLeavesNoGoroutine checks that a process holds a goroutine
// (its carrier) only from its start time on: one whose start lies beyond
// the run never gets one, a parked one is unwound by Shutdown, sequential
// lives share one carrier, and Shutdown returns the goroutine count to
// its baseline, idle carriers included.
func TestShutdownLeavesNoGoroutine(t *testing.T) {
	waitBaseline := func(base int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Shutdown, baseline %d", runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
	}
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	ran := false
	k.SpawnAt(100, "late", func(p *Process) { ran = true })
	k.Spawn("parked", func(p *Process) { p.Park() })
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines before any process started, baseline %d", n, base)
	}
	k.Run(10)
	k.Shutdown()
	if ran {
		t.Error("process scheduled beyond the run started")
	}
	waitBaseline(base)

	// 50 spawn→finish lives, one after another, reuse one carrier, which
	// stays behind idle until Shutdown.
	k = NewKernel(1)
	for i := 0; i < 50; i++ {
		k.Spawn("life", func(p *Process) { p.Sleep(logical.Microsecond) })
		k.RunAll()
		if n := runtime.NumGoroutine(); n > base+1 {
			t.Fatalf("life %d: %d goroutines, want at most baseline %d + 1 idle carrier", i, n, base)
		}
	}
	k.Shutdown()
	waitBaseline(base)
}

func TestEventTimeAccessor(t *testing.T) {
	k := NewKernel(1)
	ev := k.At(42, func() {})
	if ev.at != 42 {
		t.Errorf("Time = %v", ev.at)
	}
}

func TestKernelStringer(t *testing.T) {
	k := NewKernel(1)
	if k.String() == "" {
		t.Error("empty kernel string")
	}
	p := k.Spawn("named", func(p *Process) {})
	if p.String() != "process(named)" {
		t.Errorf("process string = %q", p.String())
	}
	if p.name != "named" || p.k != k {
		t.Error("accessors wrong")
	}
}
