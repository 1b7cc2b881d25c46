package ara

import (
	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/someip"
)

// Ctx is handed to method/event handlers. It exposes simulated time and
// lets handlers consume execution time, which is how worst-case execution
// times are modelled. A Ctx is valid only while the handler it was passed
// to runs: each executor worker thread reuses one Ctx for every task it
// runs, so a handler must not keep it, or the Message it returns, past
// its return.
type Ctx struct {
	p   *des.Process
	rt  *Runtime
	msg *someip.Message
}

// Message returns the SOME/IP message that triggered this handler, or nil
// in a Runtime.Spawn or Runtime.Every body, which no message triggers.
// The DEAR transactors use it to retrieve the tag that the modified
// binding extracted from the wire. Like the Ctx, it is valid only while
// the handler runs: the runtime recycles a served message once its
// handler has returned and its reply is sent.
func (c *Ctx) Message() *someip.Message { return c.msg }

// Now returns the current simulated (global) time.
func (c *Ctx) Now() logical.Time { return c.p.Now() }

// Exec consumes d of simulated execution time (the handler's computation).
func (c *Ctx) Exec(d logical.Duration) { c.p.Sleep(d) }

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Process returns the simulated worker thread running the handler. An
// executor thread is reused by later tasks once the handler returns.
func (c *Ctx) Process() *des.Process { return c.p }

// ExecConfig configures the executor of a runtime.
type ExecConfig struct {
	// Workers is the number of simulated worker threads (default 4): at
	// most Workers handlers run at once, each on its own thread.
	Workers int
	// DispatchJitter draws the latency between a task becoming runnable
	// and a worker thread actually starting it — the OS scheduling delay.
	// Default: exponential with mean 50µs. This is nondeterminism
	// source #1/#2 of the paper: processing order follows dispatch order,
	// not arrival order.
	DispatchJitter func(*des.Rand) logical.Duration
	// Serialized enforces mutual exclusion between handler executions
	// (the paper's server "enforces mutual exclusion between the
	// execution of method invocations" while leaving their order free).
	Serialized bool
}

func defaultJitter(r *des.Rand) logical.Duration {
	return logical.Duration(r.Exp(float64(50 * logical.Microsecond)))
}

// dispatchState records what schedules the executor's next dispatch
// event.
type dispatchState uint8

const (
	// waitTask: the queue is empty; the next submit schedules a dispatch.
	waitTask dispatchState = iota
	// waitWorker: tasks are queued but all Workers threads are taken;
	// the next task to finish schedules a dispatch.
	waitWorker
	// scheduled: a dispatch event is pending; submits and finishing
	// tasks only update the queue and the busy count.
	scheduled
)

// Executor dispatches tasks, the served messages of its runtime, onto a
// pool of simulated worker threads, in FIFO order, each after a
// DispatchJitter draw. Concurrent invocations run on different threads
// — per the AP communication-management default, "the runtime maps each
// invocation to a different thread".
//
// Dispatch runs in kernel context, as transient events scheduled exactly
// where a dispatcher process would have been started or woken: by a
// submit while the queue is empty, and by a finishing task while every
// thread is taken. Worker threads are long-lived processes, at most
// Workers of them: a dispatched task goes to an idle parked worker,
// woken at the dispatch time plus jitter (UnparkAt), or else to a worker
// spawned for that time (SpawnAt). Either start is one kernel event, as
// is every dispatch, so the kernel's event sequence — times, order and
// sequence numbers — equals that of a dispatcher process that spawns a
// fresh thread per task.
type Executor struct {
	k   *des.Kernel
	rng *des.Rand
	cfg ExecConfig
	// queue[head:] are the tasks waiting for a thread, in FIFO order.
	// Dequeuing advances head instead of reslicing, and an emptied queue
	// rewinds, so the backing array is reused once warm.
	queue []*serve
	head  int
	mutex *Mutex
	state dispatchState
	// busy counts tasks dispatched and not yet finished (≤ Workers).
	busy int
	// idle holds the parked workers waiting for a task.
	idle []*worker
}

// worker is one pooled simulated worker thread.
type worker struct {
	e *Executor
	p *des.Process
	// next is the task handed over by dispatch (nil while idle), and
	// at the time it may start.
	next *serve
	at   logical.Time
	// ctx is handed to every task the thread runs.
	ctx Ctx
}

// NewExecutor creates an executor. Worker threads spawn on demand and
// are reused once idle.
func NewExecutor(k *des.Kernel, rng *des.Rand, cfg ExecConfig) *Executor {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.DispatchJitter == nil {
		cfg.DispatchJitter = defaultJitter
	}
	return &Executor{
		k:     k,
		rng:   rng,
		cfg:   cfg,
		mutex: NewMutex(),
	}
}

// submit queues t to run on a worker thread after the dispatch jitter.
func (e *Executor) submit(t *serve) {
	e.queue = append(e.queue, t)
	if e.state == waitTask {
		e.state = scheduled
		e.k.Post(e.k.Now(), dispatchFn, e)
	}
}

// dispatchFn is the dispatch event: it starts queued tasks in FIFO order
// while threads are free, drawing each task's dispatch jitter from the
// executor's stream, and records what schedules the next dispatch.
func dispatchFn(a any) {
	e := a.(*Executor)
	for {
		if e.head == len(e.queue) {
			e.state = waitTask
			return
		}
		if e.busy == e.cfg.Workers {
			e.state = waitWorker
			return
		}
		t := e.queue[e.head]
		e.queue[e.head] = nil
		if e.head++; e.head == len(e.queue) {
			e.queue, e.head = e.queue[:0], 0
		}
		e.busy++
		at := e.k.Now().Add(e.cfg.DispatchJitter(e.rng))
		if n := len(e.idle); n > 0 {
			w := e.idle[n-1]
			e.idle = e.idle[:n-1]
			w.next, w.at = t, at
			w.p.UnparkAt(at)
		} else {
			w := &worker{e: e, next: t, at: at}
			w.p = e.k.SpawnAt(at, "ara.worker", w.run)
		}
	}
}

// run is the worker thread's body: run the handed-over task, free the
// thread (which may schedule a dispatch), go idle and park until the
// next task's start time.
func (w *worker) run(p *des.Process) {
	e := w.e
	w.ctx.p = p
	for {
		t := w.next
		w.next = nil
		e.runTask(&w.ctx, t)
		e.busy--
		if e.state == waitWorker {
			e.state = scheduled
			e.k.Post(e.k.Now(), dispatchFn, e)
		}
		e.idle = append(e.idle, w)
		// An Unpark left pending by an earlier task on this thread (a
		// FindServiceSync callback after its timeout, say) may arrive
		// first; it finds no task, or a start time still ahead, and the
		// worker parks again until its own UnparkAt.
		for w.next == nil || p.Now() < w.at {
			p.Park()
		}
	}
}

// runTask runs one task with the worker's Ctx c. The deferred Unlock
// also runs when a kernel shutdown kills the task mid-Exec.
func (e *Executor) runTask(c *Ctx, t *serve) {
	if e.cfg.Serialized {
		e.mutex.Lock(c.p)
		defer e.mutex.Unlock()
	}
	t.run(c)
	c.rt, c.msg = nil, nil
}

// Mutex is a mutual-exclusion lock for simulated processes with FIFO
// hand-off.
type Mutex struct {
	locked  bool
	waiters []*des.Process
}

// NewMutex returns an unlocked mutex.
func NewMutex() *Mutex { return &Mutex{} }

// Lock blocks the process until the mutex is acquired.
func (m *Mutex) Lock(p *des.Process) {
	for m.locked {
		m.waiters = append(m.waiters, p)
		p.Park()
	}
	m.locked = true
}

// Unlock releases the mutex and wakes the first waiter.
func (m *Mutex) Unlock() {
	if !m.locked {
		panic("ara: Unlock of unlocked Mutex")
	}
	m.locked = false
	if len(m.waiters) > 0 {
		// Shift rather than reslice, so the backing array is reused and
		// a contended Lock allocates nothing in steady state.
		w := m.waiters[0]
		n := copy(m.waiters, m.waiters[1:])
		m.waiters[n] = nil
		m.waiters = m.waiters[:n]
		w.Unpark()
	}
}
