package des

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/logical"
)

// fedTrace is a tiny message-passing scenario used to compare federated
// execution against a single kernel: nodes pass a counter around a ring,
// each hop adding a fixed latency, every node recording (time, node,
// value). The trace is the full observable behaviour.
type fedTraceEntry struct {
	At    logical.Time
	Node  int
	Value int
}

// runRingSingle runs the ring on one kernel.
func runRingSingle(nodes, hops int, latency logical.Duration) []fedTraceEntry {
	k := NewKernel(1)
	var trace []fedTraceEntry
	var hop func(node, value int)
	hop = func(node, value int) {
		trace = append(trace, fedTraceEntry{At: k.Now(), Node: node, Value: value})
		if value >= hops {
			return
		}
		next := (node + 1) % nodes
		k.Post(k.Now().Add(latency), Call, func() { hop(next, value+1) })
	}
	k.At(0, func() { hop(0, 0) })
	k.RunAll()
	return trace
}

// runRingFederated runs the same ring with one node per partition, hops
// crossing federation channels.
func runRingFederated(nodes, hops int, latency logical.Duration) ([]fedTraceEntry, *Federation) {
	f := NewFederation(1, nodes)
	chans := make([]*Channel, nodes)
	for i := 0; i < nodes; i++ {
		chans[i] = f.Channel(i, (i+1)%nodes, latency)
	}
	var trace []fedTraceEntry
	var hop func(node, value int)
	hop = func(node, value int) {
		k := f.Kernel(node)
		trace = append(trace, fedTraceEntry{At: k.Now(), Node: node, Value: value})
		if value >= hops {
			return
		}
		next := (node + 1) % nodes
		chans[node].Send(k.Now().Add(latency), Call, func() { hop(next, value+1) })
	}
	f.Kernel(0).At(0, func() { hop(0, 0) })
	f.RunAll()
	return trace, f
}

func TestFederationRingMatchesSingleKernel(t *testing.T) {
	for _, nodes := range []int{2, 3, 5} {
		want := runRingSingle(nodes, 40, 70*logical.Microsecond)
		got, f := runRingFederated(nodes, 40, 70*logical.Microsecond)
		if len(got) != len(want) {
			t.Fatalf("nodes=%d: trace length %d != %d", nodes, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("nodes=%d: trace[%d] = %+v, want %+v", nodes, i, got[i], want[i])
			}
		}
		if f.Rounds() == 0 {
			t.Fatalf("nodes=%d: federation reported zero coordination rounds", nodes)
		}
	}
}

// The federated trace must not depend on the Go scheduler: run the same
// federation under several GOMAXPROCS values and require identical traces.
func TestFederationDeterministicAcrossGOMAXPROCS(t *testing.T) {
	ref, _ := runRingFederated(4, 60, 30*logical.Microsecond)
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got, _ := runRingFederated(4, 60, 30*logical.Microsecond)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("GOMAXPROCS=%d: trace diverged", procs)
		}
	}
}

// Two partitions exchanging through processes blocked on park queues —
// the baton machinery must work unchanged inside federation windows.
func TestFederationProcessesAndMailboxes(t *testing.T) {
	f := NewFederation(7, 2)
	la := 50 * logical.Microsecond
	ab := f.Channel(0, 1, la)
	ba := f.Channel(1, 0, la)
	ka, kb := f.Kernel(0), f.Kernel(1)
	mbA, mbB := &parkQueue{}, &parkQueue{}

	const rounds = 25
	var gotA, gotB []int
	ka.Spawn("ping", func(p *Process) {
		ab.Send(p.Now().Add(la), Call, func() { mbB.put(0) })
		for {
			v := mbA.recv(p)
			gotA = append(gotA, v)
			if v >= rounds {
				return
			}
			ab.Send(p.Now().Add(la), Call, func() { mbB.put(v + 1) })
		}
	})
	kb.Spawn("pong", func(p *Process) {
		for {
			v := mbB.recv(p)
			gotB = append(gotB, v)
			ba.Send(p.Now().Add(la), Call, func() { mbA.put(v + 1) })
			if v+1 >= rounds {
				return
			}
		}
	})
	f.RunAll()
	f.Shutdown()
	if len(gotB) == 0 || gotB[0] != 0 || len(gotA) == 0 || gotA[len(gotA)-1] != rounds {
		t.Fatalf("ping-pong incomplete: a=%v b=%v", gotA, gotB)
	}
}

func TestFederationLookaheadViolationPanics(t *testing.T) {
	f := NewFederation(1, 2)
	ch := f.Channel(0, 1, logical.Millisecond)
	f.Kernel(0).At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("send below lookahead should panic")
			}
		}()
		ch.Send(f.Kernel(0).Now().Add(logical.Microsecond), Call, func() {})
	})
	f.RunAll()
}

func TestFederationValidation(t *testing.T) {
	f := NewFederation(1, 2)
	for _, fn := range []func(){
		func() { f.Channel(0, 0, logical.Millisecond) },
		func() { f.Channel(0, 1, 0) },
		func() { NewFederation(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		}()
	}
}

// Daemon events on an otherwise idle partition must keep firing while the
// federation is globally live (a single kernel interleaves daemon
// housekeeping with pending work the same way), and a cyclic daemon must
// not keep the federation alive once all pending work is done.
func TestFederationDaemonsFollowGlobalLiveness(t *testing.T) {
	f := NewFederation(3, 2)
	f.Channel(0, 1, logical.Millisecond)
	f.Channel(1, 0, logical.Millisecond)
	ka, kb := f.Kernel(0), f.Kernel(1)

	// Partition 0: cyclic daemon every 1ms, counts activations.
	daemonFires := 0
	var cyclic func()
	cyclic = func() {
		daemonFires++
		ka.AfterDaemon(logical.Millisecond, cyclic)
	}
	ka.AfterDaemon(logical.Millisecond, cyclic)

	// Partition 1: pending work until t = 20ms.
	appFires := 0
	var work func()
	work = func() {
		appFires++
		if kb.Now() < logical.Time(20*logical.Millisecond) {
			kb.After(logical.Millisecond, work)
		}
	}
	kb.At(0, func() { work() })

	f.RunAll()
	if appFires == 0 {
		t.Fatal("no app work executed")
	}
	// The daemon must have covered (roughly) the app's live span — a
	// stalled partition would show near-zero fires.
	if daemonFires < 15 {
		t.Fatalf("idle partition's daemons stalled: %d fires", daemonFires)
	}
	// And the federation terminated even though the cyclic daemon
	// reschedules itself forever.
}

// A federation of one partition behaves exactly like its kernel: no
// channels can exist, so the coordinator must not engage at all.
func TestFederationSinglePartition(t *testing.T) {
	f := NewFederation(9, 1)
	k := f.Kernel(0)
	fired := 0
	k.After(logical.Second, func() { fired++ })
	end := f.RunAll()
	if fired != 1 || end != logical.Time(logical.Second) {
		t.Fatalf("fired=%d end=%v", fired, end)
	}
	if f.Rounds() != 0 || f.Grants() != 0 {
		t.Fatalf("single-partition federation coordinated: rounds=%d grants=%d, want 0/0",
			f.Rounds(), f.Grants())
	}
}
