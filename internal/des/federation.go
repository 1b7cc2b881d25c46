package des

import (
	"fmt"
	"math"
	"time"

	"repro/internal/logical"
)

// Federation shards a deterministic simulation across several Kernels,
// one per partition, executed on their own goroutines under conservative
// (LBTS / null-message style) time synchronization.
//
// The model follows the PTIDES/HLA conservative regime the paper's
// federated deployment relies on: inter-partition communication flows
// exclusively through timestamped Channels, each declaring a positive
// lookahead — a lower bound on the latency of anything crossing it.
//
// Coordination is event-driven, not lock-step. At Run start the
// coordinator collapses the channel graph into a partition-pair
// min-lookahead matrix and closes it transitively (all-pairs shortest
// lookahead paths, Floyd–Warshall), so the widest provably-safe window
// for a partition is a single O(partitions) minimum:
//
//	grant(i) = min over j of next(j) + reach(j, i)
//
// where next(j) is a lower bound on the base time of partition j's
// future sends (its earliest queued event) and reach(j, i) is the
// cheapest lookahead walk j→i (≥ 1 channel). Each kernel executes its
// granted window on its own goroutine; when it parks, the coordinator
// updates its bound, drains its outbound channel FIFOs (a null-message
// batch: the drain carries the sender's new guarantee even when no data
// crossed), incrementally recomputes only the grants that could have
// widened, and re-dispatches just those kernels. A partition whose grant
// is unconstrained — no inbound lookahead path, or a finite horizon —
// free-runs through many old-style "rounds" in a single window without
// ever parking at a barrier, because there is no barrier.
//
// Why determinism survives free-running: every cross-partition message
// carries a timestamp at or beyond the receiver's granted horizon, so
// each kernel still fires its events in strict (time, sequence) order
// and per-component behaviour is a pure function of the seed. The
// coordinator's window boundaries depend on goroutine completion order
// and may differ between runs, which permutes kernel-global sequence
// numbers of injected messages relative to locally scheduled events.
// That permutation is observable only through same-instant ties between
// a cross-partition message and an unrelated event — the same tie class
// that already legitimately differs between a single kernel and any
// federation. Simulations that demand byte-equality across execution
// modes must (and do — see simnet.Cluster and the scenario engine's
// per-client skew) keep cross-partition timestamps tie-free; under that
// contract every conservative schedule yields identical behaviour.
//
// All partition kernels are created from the same root seed, so a named
// random stream (Kernel.Rand(label)) yields the same sequence regardless
// of which partition consumes it. A simulation whose components draw
// only from component-labeled streams therefore produces byte-identical
// results whether it runs on one kernel or on a federation — the
// property the cross-mode determinism tests pin down.
type Federation struct {
	kernels  []*Kernel
	chans    []*Channel
	inbound  [][]*Channel // per-target-partition, in creation order
	outbound [][]*Channel // per-source-partition, in creation order
	running  bool

	// Diagnostics (cumulative across Run calls; never canonical).
	rounds   uint64
	grants   uint64
	parkedNs int64
}

// noPath marks an absent lookahead walk in the reach matrix.
const noPath = logical.Duration(math.MaxInt64)

// Channel is a timestamped inter-federate link from one partition to
// another. Messages sent through it are delivered to the target kernel as
// events at their timestamps; the declared lookahead is the conservative
// contract: every Send must carry a timestamp at least lookahead beyond
// the sender's current time.
//
// Determinism preconditions: a Channel must only be used from its
// sending kernel's execution context (events or processes — the queue
// is deliberately unlocked), timestamps must be computed without
// consuming random streams shared across partitions, and all channels
// must be created before the federation runs, in an order that is
// itself deterministic — drains visit channels in creation order, which
// fixes the relative sequence numbers of messages that become visible
// at the same park.
type Channel struct {
	fed       *Federation
	from, to  int
	lookahead logical.Duration
	// queue buffers messages produced during the sender's current window;
	// it is written only by the sender kernel's goroutine and read only by
	// the coordinator after the sender parks (the park hand-off through
	// the completion channel is the synchronization), so no lock is
	// needed. Its backing array is recycled across drains.
	queue []fedMsg
	// staged is coordinator-owned: messages drained from queue while the
	// target kernel was still running, held until the target parks. Its
	// backing array is recycled across drains too.
	staged []fedMsg
}

// fedMsg is one queued cross-partition message: delivery time plus the
// (fn, arg) pair the coordinator posts on the target kernel (see
// Kernel.Post).
type fedMsg struct {
	at  logical.Time
	fn  func(arg any)
	arg any
}

// NewFederation creates a federation of the given number of partition
// kernels. Every kernel derives from the same seed so that labeled
// random streams are identical across partition assignments (and match a
// single kernel created with the same seed).
func NewFederation(seed uint64, partitions int) *Federation {
	if partitions <= 0 {
		panic("des: federation needs at least one partition")
	}
	f := &Federation{
		kernels:  make([]*Kernel, partitions),
		inbound:  make([][]*Channel, partitions),
		outbound: make([][]*Channel, partitions),
	}
	for i := range f.kernels {
		f.kernels[i] = NewKernel(seed)
	}
	return f
}

// Partitions returns the number of partition kernels.
func (f *Federation) Partitions() int { return len(f.kernels) }

// Kernel returns partition i's kernel.
func (f *Federation) Kernel(i int) *Kernel { return f.kernels[i] }

// Rounds returns the number of global coordination rounds so far: the
// times the coordinator found every partition parked at once and had to
// perform a full dispatch sweep to restart progress — the direct
// successor of the old lock-step barrier round, which serialized the
// whole federation at every LBTS advance. Grants handed out while at
// least one other partition was still mid-window are not rounds; they
// are the asynchronous path this coordinator exists for. A cost metric,
// never part of canonical reports; like all coordination diagnostics it
// may vary between runs of the same simulation, because window
// boundaries follow goroutine completion order.
func (f *Federation) Rounds() uint64 { return f.rounds }

// Grants returns the total number of windows dispatched to partition
// kernels so far (across all partitions; the grant-count successor of
// the barrier-round metric). Diagnostic, schedule-dependent.
func (f *Federation) Grants() uint64 { return f.grants }

// ParkedNs returns cumulative wall-clock nanoseconds that partitions
// with pending work spent parked between windows, waiting for a grant —
// the federation's serialization tax. Diagnostic, machine-dependent.
func (f *Federation) ParkedNs() int64 { return f.parkedNs }

// EventsFired sums the events executed across all partitions.
func (f *Federation) EventsFired() uint64 {
	var n uint64
	for _, k := range f.kernels {
		n += k.EventsFired()
	}
	return n
}

// Channel creates an inter-federate link from partition `from` to
// partition `to` with the given lookahead, fixed for the channel's
// lifetime. Lookahead must be positive: conservative synchronization
// cannot make progress through a zero-latency cross-partition link.
func (f *Federation) Channel(from, to int, lookahead logical.Duration) *Channel {
	if f.running {
		panic("des: Federation.Channel called while running")
	}
	if from == to {
		panic("des: federation channel must cross partitions")
	}
	if lookahead <= 0 {
		panic("des: federation channel needs positive lookahead")
	}
	c := &Channel{fed: f, from: from, to: to, lookahead: lookahead}
	f.chans = append(f.chans, c)
	f.inbound[to] = append(f.inbound[to], c)
	f.outbound[from] = append(f.outbound[from], c)
	return c
}

// Send enqueues a message for delivery at time `at` on the target
// kernel, which then calls fn(arg) as an event. It must be called from
// the sending kernel's execution context (inside a firing event or
// process), and `at` must respect the lookahead contract. fn is
// typically a package-level function and arg a pooled carrier, so
// enqueuing, draining and injecting the message allocates nothing
// beyond the queue slot. Carriers released by fn run on the target
// kernel's goroutine — pool them on the target side (see simnet's
// delivery carriers for the pattern).
func (c *Channel) Send(at logical.Time, fn func(arg any), arg any) {
	sender := c.fed.kernels[c.from]
	if at < sender.now.Add(c.lookahead) {
		panic(fmt.Sprintf(
			"des: federation channel %d->%d: send at %v violates lookahead %v (sender now %v)",
			c.from, c.to, at, c.lookahead, sender.now))
	}
	c.queue = append(c.queue, fedMsg{at: at, fn: fn, arg: arg})
}

// lookaheadMatrix builds reach: reach[j][i] is the cheapest lookahead
// walk from partition j to partition i using at least one channel
// (noPath when none exists). Because every channel's lookahead is
// positive, the shortest walk is well-defined and Floyd–Warshall over
// the per-pair minimum closes it in O(partitions³) — paid once per Run,
// after which every grant computation is a single O(partitions) sweep
// instead of an O(channels × sweeps) fixpoint per round.
func (f *Federation) lookaheadMatrix() [][]logical.Duration {
	n := len(f.kernels)
	reach := make([][]logical.Duration, n)
	backing := make([]logical.Duration, n*n)
	for i := range backing {
		backing[i] = noPath
	}
	for i := range reach {
		reach[i] = backing[i*n : (i+1)*n]
	}
	for _, c := range f.chans {
		if c.lookahead < reach[c.from][c.to] {
			reach[c.from][c.to] = c.lookahead
		}
	}
	for k := 0; k < n; k++ {
		for a := 0; a < n; a++ {
			dak := reach[a][k]
			if dak == noPath {
				continue
			}
			row := reach[a]
			via := reach[k]
			for b := 0; b < n; b++ {
				if via[b] == noPath {
					continue
				}
				if alt := dak + via[b]; alt < row[b] {
					row[b] = alt
				}
			}
		}
	}
	return reach
}

// fedWindow is one work item for a partition worker goroutine.
type fedWindow struct {
	until logical.Time
	// quiesce selects Kernel.Run (stop at local quiescence — used for
	// structurally isolated partitions, which nothing can ever wake)
	// instead of Kernel.RunLive.
	quiesce bool
}

// coordinator carries the per-Run scheduling state. It lives on the
// coordinator goroutine (the Run caller); worker goroutines only execute
// kernel windows and report completions — the channel hand-offs are the
// only cross-goroutine synchronization, which is what keeps the kernels'
// unlocked internals race-free.
type coordinator struct {
	f     *Federation
	until logical.Time
	reach [][]logical.Duration
	// isolated[i]: no other partition has a lookahead walk into i, so
	// nothing can ever be injected into it — it free-runs to the horizon
	// in a single grant.
	isolated []bool
	// next[i] is partition i's earliest queued event while parked,
	// frozen at its dispatch value while running. It is the lower bound
	// on the base time of i's future sends, the dispatch criterion (a
	// window is only granted if it contains work) and the fallback
	// horizon cap. Freezing is safe: nothing is injected mid-window
	// (messages staged for a running partition wait for its park, and
	// the grant that opened the window guaranteed they land beyond it),
	// and every event the window schedules lies at or after the event
	// that scheduled it, so no send can be based below the frozen value.
	next []logical.Time
	// floor[i] is the earliest timestamp among messages staged for
	// partition i (Forever when none). A staged message is in flight but
	// invisible to every bound — the sender already fired its emitting
	// event (so the sender's bound has moved past it) and the receiver
	// has not been handed it yet (so the receiver's queue does not show
	// it). Without this term a round trip can land inside the
	// requester's own window: the requester emits, parks, its bound
	// jumps forward, a wide grant is computed, and the response comes
	// back below the window end. The floor re-materializes the staged
	// message as a bound: grants treat it as an event the receiver is
	// about to acquire.
	floor []logical.Time
	// minSpan is the grant-hysteresis threshold: while other partitions
	// are still running, a parked partition is only redispatched if its
	// window reaches at least this far past its next event. Dribble
	// windows — redispatching the instant a single message lands, for a
	// window that ends just before the next in-flight one — cost a full
	// grant round-trip per message; deferring them lets the still-running
	// partitions park, widen the grant, and amortize one dispatch over a
	// whole batch of arrivals. Set to the federation's minimum channel
	// lookahead (the natural "one hop" of simulated time). Progress is
	// unaffected: once every partition is parked, dispatch falls back to
	// granting any window with work in it.
	minSpan logical.Duration
	// runningP/dirty/parkedAt are per-partition scheduler flags: executing
	// a window; grant may have widened since last look; wall-clock park
	// instant (zero time = parked without pending work, not counted).
	runningP []bool
	dirty    []bool
	parkedAt []time.Time
	work     []chan fedWindow
	done     chan int
	nRunning int
}

// Run executes the federation until only daemon events remain anywhere
// (the federated analogue of a single kernel going quiescent) or every
// next event lies strictly beyond the until horizon. It returns the
// latest simulated time reached by any partition.
//
// Within its granted windows each kernel advances through every event —
// daemon events included — mirroring how a single kernel interleaves
// daemon housekeeping with pending work while the global simulation is
// still live. At the end of the run a partition may have fired
// housekeeping daemons slightly past the instant at which a single
// kernel would have stopped, and a structurally isolated partition
// (no inbound lookahead path) runs with exact single-kernel semantics,
// so its daemons do not track other partitions' liveness; scenario
// reports must not depend on daemon-only tail activity (see the
// cross-mode determinism tests).
func (f *Federation) Run(until logical.Time) logical.Time {
	if f.running {
		panic("des: Federation.Run called reentrantly")
	}
	f.running = true
	defer func() { f.running = false }()

	if len(f.kernels) == 1 {
		// A federation of one partition degenerates to its kernel: no
		// channels can exist (they must cross partitions), so there is
		// nothing to coordinate — zero rounds, zero grants.
		f.kernels[0].Run(until)
		return f.finish(until)
	}

	n := len(f.kernels)
	co := &coordinator{
		f:        f,
		until:    until,
		reach:    f.lookaheadMatrix(),
		isolated: make([]bool, n),
		next:     make([]logical.Time, n),
		floor:    make([]logical.Time, n),
		runningP: make([]bool, n),
		dirty:    make([]bool, n),
		parkedAt: make([]time.Time, n),
		work:     make([]chan fedWindow, n),
		done:     make(chan int, n),
	}
	for _, c := range f.chans {
		if co.minSpan == 0 || 2*c.lookahead < co.minSpan {
			co.minSpan = 2 * c.lookahead
		}
	}
	for i := 0; i < n; i++ {
		co.floor[i] = logical.Forever
		co.isolated[i] = true
		for j := 0; j < n && co.isolated[i]; j++ {
			if j != i && co.reach[j][i] != noPath {
				co.isolated[i] = false
			}
		}
		co.refresh(i)
		co.dirty[i] = true
		co.work[i] = make(chan fedWindow, 1)
		k := f.kernels[i]
		wch := co.work[i]
		go func() {
			for w := range wch {
				if w.quiesce {
					k.Run(w.until)
				} else {
					k.RunLive(w.until)
				}
				co.done <- i
			}
		}()
	}

	for {
		if co.nRunning > 0 {
			// Block for one completion, then absorb every other park that
			// has already piled up before recomputing any grants: each
			// extra bound folded in now widens the windows handed out next,
			// so coalescing turns k quick completions into one wide
			// re-dispatch instead of k narrow ones.
			co.park(<-co.done)
			for drained := false; !drained && co.nRunning > 0; {
				select {
				case i := <-co.done:
					co.park(i)
				default:
					drained = true
				}
			}
			if co.nRunning > 0 {
				// Something is still mid-window: hand out whatever widened.
				// Once the last partition parks we instead fall through to
				// the all-parked branch below, whose quiescence check is
				// what lets a federation with only cyclic daemons left
				// terminate instead of chasing them forever.
				co.dispatch(false, true)
			}
			continue
		}
		// All partitions parked: every channel queue has been drained and
		// injected, so global quiescence is exactly "no non-daemon events
		// anywhere". Dispatch in two phases: first only windows with real
		// runway (deferred partitions stay parked while the laggards whose
		// progress widens their grants run), then — if nothing qualifies —
		// any window with work in it, which is what guarantees progress.
		if f.totalPending() == 0 {
			break
		}
		n := co.dispatch(true, true)
		if n == 0 {
			n = co.dispatch(true, false)
		}
		if n == 0 {
			// Every next event lies beyond the horizon.
			break
		}
		f.rounds++
	}
	for _, w := range co.work {
		close(w)
	}
	return f.finish(until)
}

// refresh recomputes partition i's earliest-event bound from its queue
// (Forever when empty). Must only be called while i is parked.
func (co *coordinator) refresh(i int) {
	if t, ok := co.f.kernels[i].NextEventTime(); ok {
		co.next[i] = t
	} else {
		co.next[i] = logical.Forever
	}
}

// grant computes the widest provably-safe horizon for partition i: the
// earliest timestamp any message could still arrive with, over every
// lookahead walk from every partition (including i itself, through
// cycles). Running partitions contribute their dispatch-time next —
// anything they send inside their current window carries at least that
// base plus the walk's lookahead. A partition's effective base is the
// minimum of its next event and its staged floor: a message staged
// for it is an event it is about to acquire, so downstream
// walks must assume emissions from that timestamp onward. Messages
// staged for i itself cap the grant directly — they will be injected
// at i's next park and the window must not overrun them.
func (co *coordinator) grant(i int) logical.Time {
	g := co.floor[i]
	for j, b := range co.next {
		d := co.reach[j][i]
		if f := co.floor[j]; f < b {
			b = f
		}
		if d == noPath || b == logical.Forever {
			continue
		}
		if arr := b.Add(d); arr < g {
			g = arr
		}
	}
	return g
}

// maxFiniteNext returns the largest finite next-event time — the cap
// for windows that no channel constrains under an infinite horizon
// (running such a partition unbounded would chase cyclic daemons
// forever). Some next is finite whenever totalPending > 0.
func (co *coordinator) maxFiniteNext() logical.Time {
	m := logical.Time(0)
	for _, t := range co.next {
		if t < logical.Forever && t > m {
			m = t
		}
	}
	return m
}

// dispatch scans parked partitions (all of them, or only those whose
// grant may have widened) and hands a window to every one with work
// inside it. strict applies the minSpan hysteresis filter: dribble
// windows are deferred (and left dirty) in the expectation that other
// partitions' progress widens them. Returns the number of kernels
// dispatched.
func (co *coordinator) dispatch(all, strict bool) int {
	dispatched := 0
	for i := range co.next {
		if co.runningP[i] || (!all && !co.dirty[i]) {
			continue
		}
		co.dirty[i] = false
		if co.next[i] == logical.Forever {
			continue // empty queue: nothing to run until an injection
		}
		if co.isolated[i] {
			// Nothing can ever be injected: free-run to the horizon in one
			// grant, with exact single-kernel semantics (stop at local
			// quiescence rather than chasing cyclic daemons).
			if co.f.kernels[i].Pending() == 0 {
				continue
			}
			co.launch(i, fedWindow{until: co.until, quiesce: true})
			dispatched++
			continue
		}
		w := co.until
		capped := false
		if g := co.grant(i); g < logical.Forever && g-1 < w {
			// Strictly below the grant: an inbound message may arrive at
			// exactly grant and must still be able to win a tie there.
			w = g - 1
			capped = true
		}
		if w == logical.Forever {
			w = co.maxFiniteNext()
		}
		if co.next[i] > w {
			continue
		}
		if strict && capped && w.Sub(co.next[i]) < co.minSpan {
			// Dribble window: defer, let other partitions' parks widen the
			// grant, and batch the arrivals into one dispatch (see
			// coordinator.minSpan). Stays dirty so the next sweep
			// reconsiders it.
			co.dirty[i] = true
			continue
		}
		co.launch(i, fedWindow{until: w})
		dispatched++
	}
	return dispatched
}

// launch marks partition i running and hands its worker the window.
func (co *coordinator) launch(i int, w fedWindow) {
	if !co.parkedAt[i].IsZero() {
		co.f.parkedNs += time.Since(co.parkedAt[i]).Nanoseconds()
		co.parkedAt[i] = time.Time{}
	}
	co.runningP[i] = true
	co.nRunning++
	co.f.grants++
	co.work[i] <- w
}

// park processes a completion report from partition i's worker: drain
// its outbound channels (the null-message batch), absorb any messages
// staged for it while it ran, refresh its bound, and mark every grant
// that could have widened — or shrunk, if an injection woke an idle
// partition — for recomputation.
func (co *coordinator) park(i int) {
	co.runningP[i] = false
	co.nRunning--

	// Absorb inbound messages staged while i was running, in channel
	// creation order (messages from still-running senders stay invisible
	// in their queues until those senders park). Every staged message
	// for i becomes a real queued event here, so the floor lifts and
	// refresh re-materializes the constraint through next[i] instead.
	for _, c := range co.f.inbound[i] {
		if len(c.staged) > 0 {
			co.inject(c, &c.staged)
		}
	}
	co.floor[i] = logical.Forever
	co.refresh(i)

	// Drain outbound queues. The drain doubles as a null-message batch:
	// the refreshed bound carries the sender's guarantee even when no
	// data crossed.
	for _, c := range co.f.outbound[i] {
		if len(c.queue) == 0 {
			continue
		}
		if co.runningP[c.to] {
			// Target is mid-window: stage coordinator-side, recycling both
			// backing arrays across drains. The staged batch lowers the
			// target's floor (see coordinator.floor) and re-marks every
			// grant downstream of it — while staged, these messages are
			// invisible to both endpoints' bounds.
			for _, m := range c.queue {
				if m.at < co.floor[c.to] {
					co.floor[c.to] = m.at
				}
			}
			c.staged = append(c.staged, c.queue...)
			clearMsgs(c.queue)
			c.queue = c.queue[:0]
			co.touch(c.to)
		} else {
			co.inject(c, &c.queue)
			co.wake(c.to)
		}
	}

	co.touch(i)
	if co.f.kernels[i].Pending() > 0 {
		co.parkedAt[i] = time.Now()
	} else {
		co.parkedAt[i] = time.Time{}
	}
}

// wake refreshes a parked partition's bound after an injection lowered
// (or first populated) its queue, and marks the grants it influences.
// Lowering a bound never endangers windows already in flight: the
// message that woke this partition came from some sender j, and every
// downstream grant already accounted for j through the transitive reach
// matrix.
func (co *coordinator) wake(target int) {
	co.refresh(target)
	co.touch(target)
}

// touch marks partition i and every partition reachable from it for
// grant recomputation.
func (co *coordinator) touch(i int) {
	co.dirty[i] = true
	for j := range co.dirty {
		if co.reach[i][j] != noPath {
			co.dirty[j] = true
		}
	}
}

// inject delivers a drained message batch into the (parked) target
// kernel in FIFO order, pre-reserving pooled events so the batch
// allocates nothing, then resets the batch slice in place so its
// backing array is reused by the next window.
func (co *coordinator) inject(c *Channel, msgs *[]fedMsg) {
	target := co.f.kernels[c.to]
	batch := *msgs
	target.ReserveEvents(len(batch))
	for i := range batch {
		if batch[i].at < target.now {
			// A message landing behind the target's clock means a window
			// overran the true safe grant — a coordinator soundness bug,
			// never a legitimate runtime condition. Fail loudly: the
			// alternative is a silent determinism divergence much later.
			panic(fmt.Sprintf("des: federation channel %d->%d: injecting message at %v behind target clock %v (grant soundness bug)",
				c.from, c.to, batch[i].at, target.now))
		}
		target.Post(batch[i].at, batch[i].fn, batch[i].arg)
	}
	clearMsgs(batch)
	*msgs = batch[:0]
}

// clearMsgs zeroes a drained batch so recycled backing arrays do not
// pin delivery closures past their injection.
func clearMsgs(msgs []fedMsg) {
	for i := range msgs {
		msgs[i] = fedMsg{}
	}
}

func (f *Federation) totalPending() int {
	n := 0
	for _, k := range f.kernels {
		n += k.Pending()
	}
	return n
}

// finish clamps every kernel to the horizon and reports the latest
// simulated time reached.
func (f *Federation) finish(until logical.Time) logical.Time {
	latest := logical.Time(0)
	for _, k := range f.kernels {
		if until < logical.Forever && k.now < until {
			k.now = until
		}
		if k.now > latest {
			latest = k.now
		}
	}
	return latest
}

// RunAll executes the federation until global quiescence.
func (f *Federation) RunAll() logical.Time { return f.Run(logical.Forever) }

// Shutdown unwinds every partition's blocked processes (see
// Kernel.Shutdown). Call it after Run returns.
func (f *Federation) Shutdown() {
	for _, k := range f.kernels {
		k.Shutdown()
	}
}

// String summarizes the federation state for diagnostics.
func (f *Federation) String() string {
	return fmt.Sprintf("federation(partitions=%d channels=%d rounds=%d grants=%d)",
		len(f.kernels), len(f.chans), f.rounds, f.grants)
}
