package des

import (
	"sort"
	"testing"

	"repro/internal/logical"
)

// --- Coordinator edge cases (asynchronous grant path) ---

// A partition with no inbound lookahead walk can never receive a
// message, so the coordinator must hand it the whole horizon in a
// single quiesce grant instead of stepping it through lookahead-paced
// windows.
func TestFederationNoInboundFreeRuns(t *testing.T) {
	f := NewFederation(1, 2)
	ch := f.Channel(0, 1, logical.Millisecond) // 0 has no inbound
	k0 := f.Kernel(0)
	fired := 0
	for i := 1; i <= 10; i++ {
		at := logical.Time(i) * logical.Time(10*logical.Millisecond)
		k0.At(at, func() {
			fired++
			ch.Send(k0.Now().Add(logical.Millisecond), Call, func() {})
		})
	}
	f.Run(logical.Time(200 * logical.Millisecond))
	if fired != 10 {
		t.Fatalf("partition 0 fired %d events, want 10", fired)
	}
	// Exactly one grant free-runs partition 0 across all ten events
	// (which span 9 lookahead intervals — a lookahead-paced coordinator
	// would need ~10 windows); the second grant runs partition 1's
	// injected batch.
	if got := f.Grants(); got != 2 {
		t.Fatalf("federation used %d grants, want 2 (free-run + injection batch)", got)
	}
}

// --- Random-graph equivalence property ---

// mix64 provides per-event pseudo-randomness as a pure function of
// its input (the splitmix64 finalizer), so both execution modes derive
// identical choices without sharing a sequential stream (whose
// consumption order would differ between them).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type graphEntry struct {
	At    logical.Time
	Value uint64
}

// graphSpec is a seeded random channel topology plus a deterministic
// message workload over it. Both execution modes run the same spec.
type graphSpec struct {
	seed  uint64
	parts int
	// la[i][j] > 0 iff the directed channel i->j exists.
	la [][]logical.Duration
}

func makeGraphSpec(seed uint64) graphSpec {
	g := graphSpec{seed: seed, parts: 2 + int(mix64(seed)%4)}
	g.la = make([][]logical.Duration, g.parts)
	for i := range g.la {
		g.la[i] = make([]logical.Duration, g.parts)
		for j := range g.la[i] {
			if i == j {
				continue
			}
			h := mix64(seed ^ uint64(i*131+j))
			if h%10 < 4 { // ~40% edge density; isolated partitions happen
				g.la[i][j] = logical.Duration(1+h/16%5) * 100 * logical.Microsecond
			}
		}
	}
	return g
}

// run executes the workload: each partition seeds one start event, and
// every firing forwards to up to two outbound neighbours (choices and
// delays are pure functions of the event identity) down to a fixed
// depth. send abstracts the mode: federation Channel.Send or a plain
// same-kernel Post. Traces are recorded per partition; entries
// are sorted afterwards, so only the behaviour set matters, not
// same-timestamp interleaving.
func (g graphSpec) run(now func(part int) logical.Time,
	send func(from, to int, at logical.Time, fn func()),
	start func(part int, at logical.Time, fn func())) [][]graphEntry {

	const maxDepth = 5
	traces := make([][]graphEntry, g.parts)
	var fire func(part, depth int, value uint64)
	fire = func(part, depth int, value uint64) {
		traces[part] = append(traces[part], graphEntry{At: now(part), Value: value})
		if depth >= maxDepth {
			return
		}
		var outs []int
		for j := 0; j < g.parts; j++ {
			if g.la[part][j] > 0 {
				outs = append(outs, j)
			}
		}
		if len(outs) == 0 {
			return
		}
		for branch := 0; branch < 2; branch++ {
			h := mix64(g.seed ^ value ^ uint64(depth*977+branch*131071))
			if branch == 1 && h%3 == 0 {
				continue // sometimes a single send
			}
			to := outs[(h/8)%uint64(len(outs))]
			delay := g.la[part][to] + logical.Duration(h/64%977)*logical.Microsecond
			at := now(part).Add(delay)
			child := mix64(value ^ h)
			send(part, to, at, func() { fire(to, depth+1, child) })
		}
	}
	for i := 0; i < g.parts; i++ {
		i := i
		at := logical.Time(mix64(g.seed^uint64(i)*7919) % 300 * uint64(logical.Microsecond))
		start(i, at, func() { fire(i, 0, mix64(g.seed+uint64(i))) })
	}
	return traces
}

func sortTraces(traces [][]graphEntry) {
	for _, tr := range traces {
		sort.Slice(tr, func(a, b int) bool {
			if tr[a].At != tr[b].At {
				return tr[a].At < tr[b].At
			}
			return tr[a].Value < tr[b].Value
		})
	}
}

// The asynchronous coordinator must preserve behaviour on arbitrary
// channel graphs — including graphs with no-inbound (free-running)
// partitions, unreachable partitions and asymmetric cycles — not just
// the curated ring topologies of the other tests. For each seed the
// same workload runs on one kernel and federated; the per-partition
// behaviour sets must match exactly.
func TestFederationRandomGraphMatchesSingleKernel(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		g := makeGraphSpec(seed)

		k := NewKernel(1)
		single := g.run(
			func(int) logical.Time { return k.Now() },
			func(_, _ int, at logical.Time, fn func()) { k.Post(at, Call, fn) },
			func(_ int, at logical.Time, fn func()) { k.At(at, fn) },
		)
		k.RunAll()

		f := NewFederation(1, g.parts)
		chans := make([][]*Channel, g.parts)
		for i := range chans {
			chans[i] = make([]*Channel, g.parts)
			for j, la := range g.la[i] {
				if la > 0 {
					chans[i][j] = f.Channel(i, j, la)
				}
			}
		}
		fed := g.run(
			func(part int) logical.Time { return f.Kernel(part).Now() },
			func(from, to int, at logical.Time, fn func()) { chans[from][to].Send(at, Call, fn) },
			func(part int, at logical.Time, fn func()) { f.Kernel(part).At(at, fn) },
		)
		f.RunAll()

		sortTraces(single)
		sortTraces(fed)
		for p := 0; p < g.parts; p++ {
			if len(single[p]) != len(fed[p]) {
				t.Fatalf("seed=%d parts=%d partition %d: %d events federated, %d single-kernel",
					seed, g.parts, p, len(fed[p]), len(single[p]))
			}
			for e := range single[p] {
				if single[p][e] != fed[p][e] {
					t.Fatalf("seed=%d partition %d entry %d: federated %+v != single %+v",
						seed, p, e, fed[p][e], single[p][e])
				}
			}
		}
	}
}

// --- Channel queue recycling (Send growth fix) ---

// Channel.Send must not grow the queue with total traffic: the drain
// recycles the backing array (and the staged array, when the target is
// mid-window), so steady-state capacity tracks the per-window burst,
// not the run's cumulative message count.
func TestFederationChannelQueueCapacityRetention(t *testing.T) {
	const cycles, burst = 60, 32
	f := NewFederation(1, 2)
	ch := f.Channel(0, 1, logical.Millisecond)
	// The back-channel paces partition 0 into lookahead-bounded windows;
	// without it the coordinator (correctly) free-runs partition 0 to the
	// horizon and the queue legitimately holds the whole run's traffic.
	f.Channel(1, 0, logical.Millisecond)
	k := f.Kernel(0)
	delivered := 0
	deliver := func() { delivered++ }
	var cycle func(c int)
	cycle = func(c int) {
		if c == cycles {
			return
		}
		for m := 0; m < burst; m++ {
			ch.Send(k.Now().Add(logical.Millisecond+logical.Duration(m)), Call, deliver)
		}
		k.After(2*logical.Millisecond, func() { cycle(c + 1) })
	}
	k.At(0, func() { cycle(0) })
	f.RunAll()
	if delivered != cycles*burst {
		t.Fatalf("delivered %d messages, want %d", delivered, cycles*burst)
	}
	if len(ch.queue) != 0 || len(ch.staged) != 0 {
		t.Fatalf("undrained channel: queue=%d staged=%d", len(ch.queue), len(ch.staged))
	}
	// A Send that leaked the backing array would leave cap >= total
	// traffic; the recycled array stabilizes near the widest window's
	// burst (several cycles can share one lookahead window).
	if c := cap(ch.queue); c >= cycles*burst/2 {
		t.Fatalf("queue backing array grew with cumulative traffic: cap=%d for %d msgs/window bursts",
			c, burst)
	}
}

// The stage/inject path must stay amortized-alloc-free per message
// (mirroring the trace recorder's zero-alloc gate): drains reuse the
// queue and staged arrays, and inject pre-reserves pooled events.
// Doubling the traffic must therefore cost only the messages' own
// storage, not coordination allocations per window.
func TestFederationDrainInjectAllocs(t *testing.T) {
	run := func(cycles int) {
		const burst = 16
		f := NewFederation(1, 2)
		fwd := f.Channel(0, 1, logical.Millisecond)
		back := f.Channel(1, 0, logical.Millisecond)
		k0, k1 := f.Kernel(0), f.Kernel(1)
		var cycle func(c int)
		cycle = func(c int) {
			if c == cycles {
				return
			}
			for m := 0; m < burst; m++ {
				fwd.Send(k0.Now().Add(logical.Millisecond+logical.Duration(m)), Call, func() {
					back.Send(k1.Now().Add(logical.Millisecond), Call, func() {})
				})
			}
			k0.After(2*logical.Millisecond, func() { cycle(c + 1) })
		}
		k0.At(0, func() { cycle(0) })
		f.RunAll()
	}
	const small, large = 40, 160
	base := testing.AllocsPerRun(3, func() { run(small) })
	grown := testing.AllocsPerRun(3, func() { run(large) })
	// Fixed setup (kernels, goroutines, coordinator state) dominates
	// `base`; the delta is the marginal cost of 120 extra cycles of
	// round-trip traffic. Each message may allocate its closure, but a
	// regression that reallocates queues or events per window shows up
	// as several extra allocations per message.
	perMsg := (grown - base) / float64((large-small)*16*2)
	if perMsg > 4 {
		t.Fatalf("drain/inject path allocates %.1f objects per message, want <= 4", perMsg)
	}
}
