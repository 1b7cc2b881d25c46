package des

import (
	"fmt"

	"repro/internal/logical"
)

type procState int

const (
	procNew procState = iota
	procRunnable
	procRunning
	procSleeping // blocked with a scheduled wake event
	procBlocked  // parked, waiting for an explicit Unpark
	procDone
)

// Killed is the panic value used to unwind a process goroutine during
// Kernel.Shutdown. Process bodies must let it propagate (a deferred
// recover must re-panic on it).
type Killed struct {
	// Name is the killed process's name.
	Name string
}

// Error renders the kill reason (Killed satisfies error so that test
// harnesses can match it).
func (k Killed) Error() string { return "des: process killed: " + k.Name }

// Process is a simulated thread of control. Its body runs on a dedicated
// goroutine but only while the kernel has handed it the baton, so at most
// one process (or the kernel itself) executes at any moment.
//
// All Process methods that block (Sleep, WaitUntil, Park, ...) must be
// called only from within the process's own body.
type Process struct {
	k      *Kernel
	name   string
	state  procState
	resume chan resumeSignal
	yield  chan struct{}
	wake   *Event // pending wake event while sleeping
	// wakeEv is the process's reusable wake-event storage: a process
	// sleeps at most once at a time, so its wake events (one per
	// Sleep/WaitUntil) reuse a single caller-owned Event (see Kernel.post)
	// instead of allocating one per block.
	wakeEv Event
	// interruptible is set while the process blocks in an operation that
	// Interrupt may legitimately wake (WaitUntilInterruptible, Park).
	interruptible bool
	killed        bool
	// body is the process's code until its first dispatch starts it.
	body func(p *Process)
}

type resumeSignal struct {
	interrupted bool
	killed      bool
}

// Spawn creates a process and schedules its body to start at the current
// simulated time (after already-queued events at that time).
func (k *Kernel) Spawn(name string, body func(p *Process)) *Process {
	return k.SpawnAt(k.now, name, body)
}

// SpawnLocal creates a process like Spawn, with the additional
// declaration that the process — and everything it transitively
// schedules — never emits onto a federation channel. The declaration is
// enforced: Channel.Send panics if called while any of the process's
// events fire. In exchange, the federation coordinator excludes the
// process's events from the partition's earliest-output-time bound, so
// dense local-only activity (load generators, intra-platform traffic)
// stops throttling downstream partitions' grant windows.
//
// The mark is inherited by scheduling: the process's sleep/wake events,
// anything it schedules while holding the baton, and local datagram
// deliveries it triggers all become local automatically. A resume
// scheduled by a non-local event (a mailbox put from ordinary traffic,
// say) is not local — so only processes whose wakes all originate from
// their own timeline keep the full benefit.
func (k *Kernel) SpawnLocal(name string, body func(p *Process)) *Process {
	return k.spawnAt(k.now, name, body, true)
}

// SpawnAt creates a process whose body starts at simulated time t.
func (k *Kernel) SpawnAt(t logical.Time, name string, body func(p *Process)) *Process {
	return k.spawnAt(t, name, body, false)
}

func (k *Kernel) spawnAt(t logical.Time, name string, body func(p *Process), local bool) *Process {
	p := &Process{k: k, name: name, state: procNew, body: body}
	k.procs = append(k.procs, p)
	k.post(nil, t, wakeFn, p, false, true, local)
	return p
}

// wakeFn is the package-level body of a process's start and wake events:
// scheduled closure-free with the process as the event argument.
func wakeFn(a any) { a.(*Process).dispatch(resumeSignal{}) }

// start gives the process its goroutine and baton channels and runs its
// body, on the process's first dispatch: a process costs a goroutine
// only from its start time on, and one that never starts (its start lies
// beyond the run, or the kernel shuts down first) never has one to leak.
// The first dispatch is always the spawn event — Unpark, Interrupt and
// Shutdown all pass over a process that has not started.
//
// The baton channels have capacity 1: strict alternation guarantees at
// most one signal is ever in flight per direction, so a buffered send
// completes without parking the sender — one goroutine handoff per
// switch instead of two. Mutual exclusion is unchanged because each side
// still blocks on its own receive before proceeding.
func (p *Process) start() {
	p.resume = make(chan resumeSignal, 1)
	p.yield = make(chan struct{}, 1)
	body := p.body
	p.body = nil
	p.state = procRunning
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(Killed); ok {
					p.state = procDone
					p.yield <- struct{}{}
					return
				}
				p.state = procDone
				// Hand the baton back before re-panicking so the kernel
				// does not deadlock; then crash loudly on this goroutine.
				p.yield <- struct{}{}
				panic(r)
			}
			p.state = procDone
			p.yield <- struct{}{}
		}()
		body(p)
	}()
}

// dispatch hands the baton to the process — starting it on the first
// call — and waits for it to block or finish. Called only from kernel
// context (inside a firing event).
func (p *Process) dispatch(sig resumeSignal) {
	switch p.state {
	case procDone:
		return
	case procNew:
		p.start()
	default:
		p.resume <- sig
	}
	<-p.yield
}

// block yields the baton to the kernel and waits to be resumed. Returns
// the resume signal. Panics with Killed during kernel shutdown.
func (p *Process) block(st procState) resumeSignal {
	p.state = st
	p.yield <- struct{}{}
	sig := <-p.resume
	if sig.killed {
		panic(Killed{Name: p.name})
	}
	p.state = procRunning
	return sig
}

// kill unblocks the process goroutine with a termination signal. Called
// from kernel context during Shutdown.
func (p *Process) kill() {
	if p.state == procDone || p.killed {
		return
	}
	p.killed = true
	if p.wake != nil {
		p.wake.Cancel()
		p.wake = nil
	}
	p.resume <- resumeSignal{killed: true}
	<-p.yield
}

// Name returns the process name given at spawn time.
func (p *Process) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Process) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Process) Now() logical.Time { return p.k.now }

// Done reports whether the process body has returned.
func (p *Process) Done() bool { return p.state == procDone }

// Sleep blocks the process for d of simulated time.
func (p *Process) Sleep(d logical.Duration) {
	p.WaitUntil(p.k.now.Add(d))
}

// WaitUntil blocks the process until simulated time t. It is immune to
// Interrupt: only its own scheduled wake event (or kernel shutdown) can
// resume a plain wait.
func (p *Process) WaitUntil(t logical.Time) {
	p.wake = p.k.post(&p.wakeEv, t, wakeFn, p, false, false, false)
	p.block(procSleeping)
	p.wake = nil
}

// WaitUntilInterruptible blocks until simulated time t or until another
// process calls Interrupt, whichever comes first. It reports whether the
// wait was interrupted.
func (p *Process) WaitUntilInterruptible(t logical.Time) (interrupted bool) {
	p.wake = p.k.post(&p.wakeEv, t, wakeFn, p, false, false, false)
	p.interruptible = true
	sig := p.block(procSleeping)
	p.interruptible = false
	if p.wake != nil {
		p.wake.Cancel()
		p.wake = nil
	}
	return sig.interrupted
}

// Interrupt wakes a process blocked in WaitUntilInterruptible or Park
// before its scheduled time. The wake is delivered as a kernel event at
// the current simulated time, preserving deterministic ordering. It is a
// no-op if the process is not blocked in an interruptible operation at
// delivery time.
func (p *Process) Interrupt() {
	p.k.Post(p.k.now, interruptFn, p)
}

// interruptFn is the package-level delivery body of Interrupt: scheduled
// closure-free with the target process as the event argument.
func interruptFn(a any) {
	p := a.(*Process)
	if !p.interruptible {
		return
	}
	if p.state != procSleeping && p.state != procBlocked {
		return
	}
	if p.wake != nil {
		p.wake.Cancel()
		p.wake = nil
	}
	p.dispatch(resumeSignal{interrupted: true})
}

// Park blocks the process indefinitely until some other process or event
// calls Unpark (or Interrupt). It reports whether it was woken by
// Interrupt rather than Unpark.
func (p *Process) Park() (interrupted bool) {
	p.interruptible = true
	sig := p.block(procBlocked)
	p.interruptible = false
	return sig.interrupted
}

// Unpark wakes a parked process at the current simulated time. No-op if
// the process is not parked when the wake event fires.
func (p *Process) Unpark() { p.UnparkAt(p.k.now) }

// UnparkAt wakes a parked process at simulated time t (the current time
// if t lies in the past) with one transient kernel event — the same
// single event a SpawnAt(t) costs, which lets a pool of parked processes
// stand in for freshly spawned ones without changing the event
// sequence. No-op if the process is not parked when the event fires.
func (p *Process) UnparkAt(t logical.Time) {
	p.k.Post(t, unparkFn, p)
}

// unparkFn is the package-level delivery body of Unpark: scheduled
// closure-free with the target process as the event argument (a pointer,
// so boxing it into the event's arg slot allocates nothing).
func unparkFn(a any) {
	p := a.(*Process)
	if p.state != procBlocked {
		return
	}
	p.dispatch(resumeSignal{})
}

// Yield gives other events scheduled at the current time a chance to run
// before the process continues (equivalent to WaitUntil(now)).
func (p *Process) Yield() { p.WaitUntil(p.k.now) }

// String identifies the process by name for diagnostics.
func (p *Process) String() string {
	return fmt.Sprintf("process(%s)", p.name)
}
