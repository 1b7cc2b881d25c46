package des

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/logical"
)

// pinRig drives one kernel's share of the schedule pin workload: a
// seeded random mix of every scheduling entry point, each firing folded
// into a digest of (time, fired-event index, label). The rig is only
// ever touched from its own kernel's execution context.
type pinRig struct {
	k       *Kernel
	rng     *Rand
	sum     hash.Hash64
	buf     [16]byte
	budget  int
	out     *Channel // link to the peer partition; nil on a single kernel
	peer    *pinRig  // the rig on out's target kernel
	mb      *parkQueue
	handles []*Event
	waiters []*Process // loop in WaitUntilInterruptible
	parked  []*Process // loop in Park
}

func newPinRig(k *Kernel, label string, budget int) *pinRig {
	r := &pinRig{k: k, rng: k.Rand(label), sum: fnv.New64a(), budget: budget}
	r.mb = &parkQueue{}
	for i := 0; i < 2; i++ {
		r.waiters = append(r.waiters, k.Spawn("waiter", func(p *Process) {
			for j := 0; j < 6; j++ {
				if p.WaitUntilInterruptible(p.Now().Add(r.delay())) {
					r.mark("interrupted")
				} else {
					r.mark("timeout")
				}
				r.spread()
			}
		}))
		r.parked = append(r.parked, k.Spawn("parker", func(p *Process) {
			for {
				p.Park()
				r.mark("unparked")
				r.spread()
			}
		}))
	}
	k.Spawn("receiver", func(p *Process) {
		for {
			if r.mb.recv(p)%3 == 0 {
				r.mark("recv-act")
				r.spread()
			} else {
				r.mark("recv")
			}
		}
	})
	k.At(0, func() {
		r.mark("root")
		for i := 0; i < 4; i++ {
			r.act()
		}
	})
	return r
}

func (r *pinRig) delay() logical.Duration {
	return logical.Duration(r.rng.Int63n(50)) * logical.Microsecond
}

func (r *pinRig) mark(label string) {
	binary.LittleEndian.PutUint64(r.buf[:8], uint64(r.k.Now()))
	binary.LittleEndian.PutUint64(r.buf[8:], r.k.EventsFired())
	r.sum.Write(r.buf[:])
	r.sum.Write([]byte(label))
}

// parkQueue is a FIFO of ints that one process blocks on, built from
// Park and Unpark alone: put enqueues and unparks the waiting receiver,
// recv parks until a value is queued. A timed put is one Post event
// (putAt), so the queue adds no kernel event of its own.
type parkQueue struct {
	items  []int
	waiter *Process
}

func (q *parkQueue) put(v int) {
	q.items = append(q.items, v)
	if w := q.waiter; w != nil {
		q.waiter = nil
		w.Unpark()
	}
}

func (q *parkQueue) recv(p *Process) int {
	for len(q.items) == 0 {
		q.waiter = p
		p.Park()
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v
}

// queuedPut is the argument of a timed put's event.
type queuedPut struct {
	q *parkQueue
	v int
}

func queuedPutFn(a any) {
	qp := a.(*queuedPut)
	qp.q.put(qp.v)
}

// putAt enqueues v at time t.
func (q *parkQueue) putAt(k *Kernel, t logical.Time, v int) {
	k.Post(t, queuedPutFn, &queuedPut{q, v})
}

// pinPostFn and pinRecvFn are the (fn, arg) bodies of Post and
// Channel.Send; the rig rides the argument slot.
func pinPostFn(a any) {
	r := a.(*pinRig)
	r.mark("post")
	r.spread()
}

func pinRecvFn(a any) {
	r := a.(*pinRig)
	r.mark("chan")
	r.spread()
}

// procBody is the body of Spawn/SpawnAt processes: one sleep, then more
// scheduling from process context.
func (r *pinRig) procBody(p *Process) {
	r.mark("start")
	p.Sleep(r.delay())
	r.mark("slept")
	r.spread()
}

// localBody is a process body that schedules nothing beyond its own
// sleep.
func (r *pinRig) localBody(p *Process) {
	r.mark("local")
	p.Sleep(r.delay())
	r.mark("local-woke")
}

// spread performs one or two scheduling operations: enough branching
// that the workload grows until the budget runs out.
func (r *pinRig) spread() {
	r.act()
	if r.rng.Int63n(2) == 0 {
		r.act()
	}
}

// act performs one randomly chosen scheduling operation while budget
// lasts.
func (r *pinRig) act() {
	if r.budget <= 0 {
		return
	}
	r.budget--
	k := r.k
	d := r.delay()
	switch r.rng.Int63n(14) {
	case 0:
		r.handles = append(r.handles, k.At(k.Now().Add(d), func() {
			r.mark("at")
			r.spread()
		}))
	case 1:
		r.handles = append(r.handles, k.After(d, func() {
			r.mark("after")
			r.act()
			r.act()
		}))
	case 2:
		if len(r.handles) > 0 {
			r.handles[r.rng.Int63n(int64(len(r.handles)))].Cancel()
			r.mark("cancel")
		}
	case 3:
		k.AfterDaemon(d, func() { r.mark("daemon") })
	case 4:
		k.Post(k.Now().Add(d), pinPostFn, r)
	case 5:
		if r.out != nil {
			r.out.Send(k.Now().Add(r.out.lookahead+d), pinRecvFn, r.peer)
		} else {
			k.Post(k.Now().Add(d), pinPostFn, r)
		}
	case 6:
		k.Spawn("proc", r.procBody)
	case 7:
		k.SpawnAt(k.Now().Add(d), "late", r.procBody)
	case 8:
		k.Spawn("local", r.localBody)
	case 9:
		r.waiters[r.rng.Int63n(int64(len(r.waiters)))].Interrupt()
	case 10:
		r.parked[r.rng.Int63n(int64(len(r.parked)))].UnparkAt(k.Now().Add(d))
	case 11:
		r.mb.putAt(k, k.Now().Add(d), int(d))
	case 12:
		r.mb.putAt(k, k.Now().Add(d), int(r.rng.Int63n(9)))
	case 13:
		r.act()
		r.act()
	}
}

// TestKernelSchedulePinned pins the kernel's event order across every
// scheduling entry point, on one kernel and on a 2-partition federation
// with links both ways. The single-kernel section runs twice: on a bare
// kernel and on the lone kernel of a one-partition federation, driven
// through the federation's Run/RunAll — the substrate every compiled
// scenario world uses. The literals were captured from the kernel
// before its scheduling paths were collapsed onto one helper; any path
// that adds, drops or reorders a sequence number moves a digest, a
// fired count or a pending count.
func TestKernelSchedulePinned(t *testing.T) {
	const (
		wantSingle        = 0xf6e659795f33491c
		wantSingleFired   = 139
		wantSinglePending = 11
		wantSingleAll     = 737
		wantFed0          = 0x71d24e50d94ee5b2
		wantFed1          = 0xd9872c2550ed9c28
		wantFed0Fired     = 465
		wantFed1Fired     = 494
	)

	single, lone := NewKernel(7), NewFederation(7, 1)
	for _, c := range []struct {
		name   string
		k      *Kernel
		run    func(logical.Time) logical.Time
		runAll func() logical.Time
		stop   func()
	}{
		{"single kernel", single, single.Run, single.RunAll, single.Shutdown},
		{"one-partition federation", lone.Kernel(0), lone.Run, lone.RunAll, lone.Shutdown},
	} {
		k := c.k
		r := newPinRig(k, "pin", 600)
		c.run(logical.Time(400 * logical.Microsecond))
		fired, pending := k.EventsFired(), k.Pending()
		c.runAll()
		c.stop()
		if got := r.sum.Sum64(); got != wantSingle || fired != wantSingleFired ||
			pending != wantSinglePending || k.EventsFired() != wantSingleAll {
			t.Errorf("%s: digest=%#x fired=%d pending=%d total=%d, want %#x %d %d %d",
				c.name, got, fired, pending, k.EventsFired(), uint64(wantSingle), wantSingleFired, wantSinglePending, wantSingleAll)
		}
	}

	f := NewFederation(7, 2)
	r0 := newPinRig(f.Kernel(0), "pin0", 400)
	r1 := newPinRig(f.Kernel(1), "pin1", 400)
	r0.out, r0.peer = f.Channel(0, 1, 20*logical.Microsecond), r1
	r1.out, r1.peer = f.Channel(1, 0, 30*logical.Microsecond), r0
	f.RunAll()
	f.Shutdown()
	for i, c := range []struct {
		r     *pinRig
		want  uint64
		fired uint64
	}{{r0, wantFed0, wantFed0Fired}, {r1, wantFed1, wantFed1Fired}} {
		k := f.Kernel(i)
		if got := c.r.sum.Sum64(); got != c.want || k.EventsFired() != c.fired || k.Pending() != 0 {
			t.Errorf("partition %d: digest=%#x fired=%d pending=%d, want %#x %d 0",
				i, got, k.EventsFired(), k.Pending(), c.want, c.fired)
		}
	}
}
