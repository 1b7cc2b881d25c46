package ara

import (
	"errors"
	"fmt"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/someip"
)

// Errors surfaced by futures.
var (
	// ErrServiceNotAvailable reports a failed discovery or send.
	ErrServiceNotAvailable = errors.New("ara: service not available")
	// ErrTimeout reports that a future was abandoned by its timeout.
	ErrTimeout = errors.New("ara: request timed out")
)

// RemoteError is an application-level error returned by a server.
type RemoteError struct {
	Code someip.ReturnCode
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("ara: remote error %s", e.Code)
}

// Result is the outcome of a method call.
type Result struct {
	Payload []byte
	Err     error
	// Tag carries the DEAR tag of the response message, when the runtime
	// uses the modified (tagged) SOME/IP binding. Nil otherwise.
	Tag *logical.Tag
}

// Future is the asynchronous result of a method call, mirroring
// ara::core::Future. It resolves at most once.
type Future struct {
	k      *des.Kernel
	done   bool
	result Result
	cbs    []func(Result)
	// waiters are the processes blocked in Get, in the order they
	// arrived. A future almost always has exactly one, so NewFuture
	// starts the slice on the inline backing w0.
	waiters []*des.Process
	w0      [1]*des.Process
}

// NewFuture creates an unresolved future (exported for transactor use).
func NewFuture(k *des.Kernel) *Future {
	f := &Future{k: k}
	f.waiters = f.w0[:0]
	return f
}

// Result returns the resolved result (including the response tag, which
// Get drops). ok is false while the future is unresolved.
func (f *Future) Result() (r Result, ok bool) { return f.result, f.done }

// Resolve completes the future. Second and later calls are ignored
// (e.g. a late response after a timeout).
//
// Registered callbacks are delivered by a single closure-free kernel
// event carrying the future itself as its argument — the schedule+fire
// round trip allocates nothing. Running all callbacks inside one event
// preserves the historical per-callback-event order exactly: the old
// events held consecutive sequence numbers at the same instant, so no
// other event could interleave between them, and anything a callback
// schedules still lands after the whole batch either way.
func (f *Future) Resolve(r Result) {
	if f.done {
		return
	}
	f.done = true
	f.result = r
	if len(f.cbs) > 0 {
		f.k.Post(f.k.Now(), fireCallbacks, f)
	}
	for _, w := range f.waiters {
		w.Unpark()
	}
	f.waiters = nil
}

// fireCallbacks is the package-level delivery body of the resolution
// event: it drains the callbacks registered before resolution and runs
// them with the (immutable, already-resolved) result.
func fireCallbacks(a any) {
	f := a.(*Future)
	cbs := f.cbs
	f.cbs = nil
	for _, cb := range cbs {
		cb(f.result)
	}
}

// Then registers a callback to run (as a kernel event) when the future
// resolves; immediately if already resolved.
func (f *Future) Then(cb func(Result)) {
	if f.done {
		r := f.result
		f.k.Post(f.k.Now(), des.Call, func() { cb(r) })
		return
	}
	f.cbs = append(f.cbs, cb)
}

// Get blocks the calling process until resolution, mirroring
// ara::core::Future::get(). This is what a client uses to serialize its
// calls — the "wait for the future to resolve" fix discussed under
// Figure 1 of the paper.
func (f *Future) Get(p *des.Process) ([]byte, error) {
	for !f.done {
		f.waiters = append(f.waiters, p)
		p.Park()
	}
	return f.result.Payload, f.result.Err
}

// GetTimeout is Get with a deadline.
func (f *Future) GetTimeout(p *des.Process, d logical.Duration) ([]byte, error) {
	deadline := p.Now().Add(d)
	for !f.done {
		if p.Now() >= deadline {
			return nil, ErrTimeout
		}
		f.waiters = append(f.waiters, p)
		ev := f.k.At(deadline, func() { p.Unpark() })
		p.Park()
		ev.Cancel()
		// Drop ourselves from waiters if still present (timeout path).
		for i, w := range f.waiters {
			if w == p {
				f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
				break
			}
		}
	}
	return f.result.Payload, f.result.Err
}

// ResolvedFuture returns an already-resolved future.
func ResolvedFuture(k *des.Kernel, r Result) *Future {
	f := NewFuture(k)
	f.Resolve(r)
	return f
}
