package des

import "repro/internal/logical"

// Mailbox is an unbounded FIFO queue connecting simulated processes.
// Deliveries and receives are ordered by the kernel's deterministic event
// order. A mailbox may have at most one process blocked in Recv at a time.
type Mailbox[T any] struct {
	k    *Kernel
	name string
	// items[head:] are the queued values. Dequeuing advances head instead
	// of reslicing so the backing array's capacity survives drain/refill
	// cycles — the steady-state put/recv loop then never reallocates.
	// When the queue empties, both reset and the array is reused.
	items  []T
	head   int
	waiter *Process
	// argFree recycles the timed-put carriers (see putArg): a PutAt's
	// (mailbox, value) pair rides the arg slot of a Post event, and the
	// carrier returns here when the put fires, so the timed-put hot path
	// allocates nothing in steady state.
	argFree []*putArg[T]
	// putF is putFn[T] materialized once: inside generic code a
	// reference to a generic function builds a dictionary-bound func
	// value, which would be a fresh heap allocation on every PutAt.
	putF func(any)
}

// putArg carries one timed put: the target mailbox and the value to
// enqueue, stored in the scheduled event's arg slot instead of a capture
// closure. Carriers are pooled per mailbox (argFree).
type putArg[T any] struct {
	m *Mailbox[T]
	v T
}

// putFn is the package-level delivery body of PutAt/PutAfter. It returns
// the carrier to the pool before enqueuing so that a recursive timed put
// from a receiver callback can reuse it immediately.
func putFn[T any](a any) {
	pa := a.(*putArg[T])
	m, v := pa.m, pa.v
	var zero T
	pa.v = zero
	m.argFree = append(m.argFree, pa)
	m.Put(v)
}

// borrowPut takes a pooled carrier (or allocates the pool's next one)
// and fills it with the value.
func (m *Mailbox[T]) borrowPut(v T) *putArg[T] {
	var pa *putArg[T]
	if n := len(m.argFree); n > 0 {
		pa = m.argFree[n-1]
		m.argFree[n-1] = nil
		m.argFree = m.argFree[:n-1]
	} else {
		pa = &putArg[T]{}
	}
	pa.m = m
	pa.v = v
	return pa
}

// NewMailbox creates a mailbox on the kernel.
func NewMailbox[T any](k *Kernel, name string) *Mailbox[T] {
	return &Mailbox[T]{k: k, name: name, putF: putFn[T]}
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return len(m.items) - m.head }

// take dequeues the head item (callers check Len() > 0). The vacated
// slot is zeroed so pointer-carrying values do not outlive their
// dequeue, and an emptied queue rewinds to reuse its backing array.
func (m *Mailbox[T]) take() T {
	v := m.items[m.head]
	var zero T
	m.items[m.head] = zero
	m.head++
	if m.head == len(m.items) {
		m.items = m.items[:0]
		m.head = 0
	}
	return v
}

// Put enqueues an item immediately (at the current simulated time) and
// wakes a blocked receiver, if any. Safe to call from kernel events or
// from any process (there is never true concurrency in a DES).
func (m *Mailbox[T]) Put(v T) {
	m.items = append(m.items, v)
	if m.waiter != nil {
		w := m.waiter
		m.waiter = nil
		w.Unpark()
	}
}

// PutAt schedules the item to be enqueued at simulated time t. The
// schedule+fire round trip is allocation-free in steady state: the value
// rides a pooled carrier in a pooled kernel event (see putArg).
func (m *Mailbox[T]) PutAt(t logical.Time, v T) {
	m.k.Post(t, m.putF, m.borrowPut(v))
}

// PutAfter schedules the item to be enqueued d from now.
func (m *Mailbox[T]) PutAfter(d logical.Duration, v T) {
	m.PutAt(m.k.now.Add(d), v)
}

// TryRecv dequeues an item without blocking. ok is false when empty.
func (m *Mailbox[T]) TryRecv() (v T, ok bool) {
	if m.Len() == 0 {
		return v, false
	}
	return m.take(), true
}

// Recv blocks the calling process until an item is available, then
// dequeues it. Panics if another process is already blocked in Recv.
func (m *Mailbox[T]) Recv(p *Process) T {
	for m.Len() == 0 {
		if m.waiter != nil {
			panic("des: multiple receivers blocked on mailbox " + m.name)
		}
		m.waiter = p
		p.Park()
		if m.waiter == p {
			m.waiter = nil
		}
	}
	return m.take()
}

// RecvTimeout blocks until an item is available or the deadline passes.
// ok is false on timeout.
func (m *Mailbox[T]) RecvTimeout(p *Process, d logical.Duration) (v T, ok bool) {
	deadline := m.k.now.Add(d)
	for m.Len() == 0 {
		if m.k.now >= deadline {
			return v, false
		}
		if m.waiter != nil {
			panic("des: multiple receivers blocked on mailbox " + m.name)
		}
		m.waiter = p
		// Wake at the deadline unless an item arrives first.
		ev := m.k.At(deadline, func() {
			if m.waiter == p {
				m.waiter = nil
				p.Unpark()
			}
		})
		p.Park()
		ev.Cancel()
		if m.waiter == p {
			m.waiter = nil
		}
	}
	return m.take(), true
}
