package des

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logical"
)

func TestRealTimeFiresScheduledEvents(t *testing.T) {
	k := NewKernel(1)
	d := NewRealTime(k)
	var order []int
	k.After(1*logical.Millisecond, func() { order = append(order, 1) })
	k.After(5*logical.Millisecond, func() { order = append(order, 2) })
	k.After(5*logical.Millisecond, func() {
		order = append(order, 3)
		d.Stop()
	})
	start := time.Now()
	d.Run()
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("run returned after %v, before the last event was due", elapsed)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if k.Now() < logical.Time(5*logical.Millisecond) {
		t.Errorf("kernel time = %v", k.Now())
	}
}

func TestRealTimeInjectWakesSleepingDriver(t *testing.T) {
	k := NewKernel(1)
	d := NewRealTime(k)
	var handled atomic.Bool
	go d.Run()
	defer func() {
		d.Stop()
		<-d.Done()
	}()

	// Driver is asleep on an empty queue; an injection from another
	// goroutine must wake it and run on the kernel goroutine.
	done := make(chan struct{})
	d.Inject(func() {
		handled.Store(true)
		close(done)
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("injected event did not run")
	}
	if !handled.Load() {
		t.Fatal("handler flag not set")
	}
}

func TestRealTimeDrivesProcesses(t *testing.T) {
	k := NewKernel(1)
	d := NewRealTime(k)
	var woken atomic.Bool
	k.Spawn("sleeper", func(p *Process) {
		p.Sleep(2 * logical.Millisecond)
		woken.Store(true)
		d.Stop()
	})
	d.Run()
	k.Shutdown()
	if !woken.Load() {
		t.Fatal("process did not run under the real-time driver")
	}
}

// The real-time driver runs daemon events as their wall-clock time
// comes (a lone daemon would end a Run at once), until it is stopped
// from another goroutine.
func TestRealTimeFiresDaemonEvents(t *testing.T) {
	k := NewKernel(1)
	d := NewRealTime(k)
	fired := 0
	k.AfterDaemon(1*logical.Millisecond, func() { fired++ })
	start := time.Now()
	time.AfterFunc(10*time.Millisecond, d.Stop)
	d.Run()
	if time.Since(start) < 10*time.Millisecond {
		t.Error("Run returned before Stop")
	}
	if fired != 1 {
		t.Errorf("daemon event fired %d times", fired)
	}
}

func TestRealTimeElapsedTracksWallClock(t *testing.T) {
	k := NewKernel(1)
	d := NewRealTime(k)
	if d.Elapsed() != 0 {
		t.Errorf("pre-run elapsed = %v", d.Elapsed())
	}
	go d.Run()
	time.Sleep(3 * time.Millisecond)
	if e := d.Elapsed(); e < logical.Time(3*logical.Millisecond) {
		t.Errorf("elapsed = %v after sleeping 3ms", e)
	}
	d.Stop()
	<-d.Done()
}
