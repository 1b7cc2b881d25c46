package des

import (
	"sync"
	"time"

	"repro/internal/logical"
)

// RealTime drives a Kernel at the pace of the physical clock: queued
// events fire when the wall clock reaches their timestamp, and external
// stimuli (socket receptions, signals) enter the event queue through
// Inject. This is the execution mode behind ara.NewUDPRuntime — the
// same processes, executors and futures that run
// deterministically under Kernel.Run are driven here by real time, with
// kernel time tracking elapsed wall-clock nanoseconds since Run
// started.
//
// Concurrency contract: the kernel itself remains single-threaded — all
// events, process bodies and injected closures execute on the goroutine
// that called Run. Other goroutines communicate with the kernel only
// through Inject and Stop.
type RealTime struct {
	k *Kernel

	mu      sync.Mutex
	base    logical.Time // kernel time when Run started
	start   time.Time    // wall time when Run started
	started bool
	stopped bool
	inject  []func()

	wake chan struct{}
	done chan struct{}
}

// NewRealTime creates a driver for the kernel. The kernel must not be
// advanced by Run/RunAll while the driver is running.
func NewRealTime(k *Kernel) *RealTime {
	return &RealTime{
		k:    k,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
}

// Kernel returns the driven kernel.
func (d *RealTime) Kernel() *Kernel { return d.k }

// Elapsed returns the current kernel-time position of the driver: the
// kernel time at which Run started plus the wall-clock time since then.
// Before Run it returns the kernel's current time.
func (d *RealTime) Elapsed() logical.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.started {
		return d.k.Now()
	}
	return d.base.Add(logical.Duration(time.Since(d.start)))
}

// Inject schedules fn to run on the kernel goroutine at the current
// physical time. It is the only safe way for another goroutine (a
// socket reader, a timer) to interact with the kernel while Run is
// active.
func (d *RealTime) Inject(fn func()) {
	d.mu.Lock()
	d.inject = append(d.inject, fn)
	d.mu.Unlock()
	d.signal()
}

// Stop makes Run return after the batch currently executing. Safe to
// call from any goroutine, including from an event on the kernel
// goroutine.
func (d *RealTime) Stop() {
	d.mu.Lock()
	d.stopped = true
	d.mu.Unlock()
	d.signal()
}

// Done is closed when Run returns.
func (d *RealTime) Done() <-chan struct{} { return d.done }

func (d *RealTime) signal() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// Run drives the kernel until Stop is called: it fires due events as the
// wall clock catches up with their timestamps, sleeps until the next
// event when the queue runs ahead of physical time, and wakes early for
// injected external events. Run must be called at most once.
func (d *RealTime) Run() {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		panic("des: RealTime.Run called twice")
	}
	d.started = true
	d.base = d.k.Now()
	d.start = time.Now()
	d.mu.Unlock()
	defer close(d.done)

	for {
		d.mu.Lock()
		stopped := d.stopped
		batch := d.inject
		d.inject = nil
		now := d.base.Add(logical.Duration(time.Since(d.start)))
		d.mu.Unlock()
		if stopped {
			return
		}
		for _, fn := range batch {
			d.k.At(now, fn)
		}
		d.k.RunLive(now)

		// Sleep until the next queued event is due, or until an external
		// wake (Inject/Stop). With an empty queue only a wake resumes us.
		var timer *time.Timer
		var timerC <-chan time.Time
		if next, ok := d.k.NextEventTime(); ok {
			timer = time.NewTimer(time.Duration(next.Sub(d.k.Now())))
			timerC = timer.C
		}
		select {
		case <-d.wake:
		case <-timerC:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}
