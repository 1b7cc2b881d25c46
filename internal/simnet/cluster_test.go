package simnet

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
)

// buildStarTraffic wires n hosts where every host periodically sends a
// counter datagram to every other host; receivers record (time, src,
// value). The recorded trace is the full observable behaviour and must be
// identical between a single Network and any Cluster partitioning.
type starRecorder struct {
	trace []string
}

func runStar(t *testing.T, partitions, hosts, msgs int) []string {
	t.Helper()
	return runStarCfg(t, Config{
		DefaultLatency: FixedLatency(120 * logical.Microsecond),
		SwitchDelay:    20 * logical.Microsecond,
	}, partitions, hosts, msgs)
}

func runStarCfg(t *testing.T, cfg Config, partitions, hosts, msgs int) []string {
	t.Helper()
	var nets []*Network
	var hs []*Host
	var fed *des.Federation
	if partitions == 1 {
		k := des.NewKernel(42)
		n := NewNetwork(k, cfg)
		nets = []*Network{n}
		for i := 0; i < hosts; i++ {
			hs = append(hs, n.AddHost(fmt.Sprintf("h%d", i), nil))
		}
	} else {
		fed = des.NewFederation(42, partitions)
		c, err := NewCluster(fed, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < hosts; i++ {
			hs = append(hs, c.AddHost(i%partitions, fmt.Sprintf("h%d", i)))
		}
		for i := 0; i < partitions; i++ {
			nets = append(nets, c.parts[i])
		}
	}

	rec := make([]*starRecorder, hosts)
	eps := make([]*Endpoint, hosts)
	for i, h := range hs {
		rec[i] = &starRecorder{}
		ep := h.MustBind(1000)
		r := rec[i]
		k := h.Net().Kernel()
		i := i
		ep.OnReceive(func(dg Datagram) {
			v := binary.BigEndian.Uint32(dg.Payload)
			r.trace = append(r.trace, fmt.Sprintf("%d<-%d @%d sent@%d v=%d",
				i, dg.Src.Host, k.Now(), dg.SentAt, v))
		})
		eps[i] = ep
	}
	for i, h := range hs {
		k := h.Net().Kernel()
		ep := eps[i]
		i := i
		k.SpawnAt(logical.Time(i)*1013, fmt.Sprintf("send%d", i), func(p *des.Process) {
			var buf [4]byte
			for m := 0; m < msgs; m++ {
				binary.BigEndian.PutUint32(buf[:], uint32(m))
				for j := range hs {
					if j == i {
						continue
					}
					ep.Send(Addr{Host: hs[j].ID(), Port: 1000}, buf[:])
				}
				p.Sleep(logical.Duration(900+i*37) * logical.Microsecond)
			}
		})
	}

	if fed != nil {
		fed.RunAll()
		fed.Shutdown()
	} else {
		nets[0].Kernel().RunAll()
		nets[0].Kernel().Shutdown()
	}
	var all []string
	for _, r := range rec {
		all = append(all, r.trace...)
	}
	return all
}

func TestClusterMatchesSingleNetwork(t *testing.T) {
	want := runStar(t, 1, 5, 8)
	if len(want) == 0 {
		t.Fatal("single-kernel reference produced no traffic")
	}
	for _, parts := range []int{2, 3, 5} {
		got := runStar(t, parts, 5, 8)
		if len(got) != len(want) {
			t.Fatalf("parts=%d: %d deliveries, want %d", parts, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parts=%d: delivery %d = %q, want %q", parts, i, got[i], want[i])
			}
		}
	}
}

// Regression for the lifted drop-rate restriction: a federated run with
// nonzero background loss must match the single-kernel run byte-for-byte —
// both the delivery trace and the loss accounting. This is exactly what
// the old shared-stream drop implementation could not provide (drops
// consumed one sequential stream in delivery order, which differs
// across partitionings) and what the counter-based per-link streams do.
func TestClusterDropRateMatchesSingleNetwork(t *testing.T) {
	cfg := Config{
		DefaultLatency: FixedLatency(120 * logical.Microsecond),
		SwitchDelay:    20 * logical.Microsecond,
		Faults:         &FaultPlan{DropRate: 0.3},
	}
	want := runStarCfg(t, cfg, 1, 5, 12)
	if len(want) == 0 {
		t.Fatal("single-kernel reference produced no traffic")
	}
	full := runStar(t, 1, 5, 12)
	if len(want) >= len(full) {
		t.Fatalf("drop rate lost nothing: %d deliveries with drops, %d without", len(want), len(full))
	}
	for _, parts := range []int{2, 3, 5} {
		got := runStarCfg(t, cfg, parts, 5, 12)
		if len(got) != len(want) {
			t.Fatalf("parts=%d: %d deliveries, want %d", parts, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parts=%d: delivery %d = %q, want %q", parts, i, got[i], want[i])
			}
		}
	}
}

// A full fault plan — background loss, a loss window, a partition
// blackout and a jitter burst — must also survive sharding unchanged.
func TestClusterFaultPlanMatchesSingleNetwork(t *testing.T) {
	cfg := Config{
		DefaultLatency: FixedLatency(120 * logical.Microsecond),
		SwitchDelay:    20 * logical.Microsecond,
		Faults: &FaultPlan{
			Seed:     7,
			DropRate: 0.05,
			Loss: []LossWindow{{
				From: 2 * logical.Time(logical.Millisecond), To: 4 * logical.Time(logical.Millisecond),
				A: 1, B: 0, Rate: 0.6,
			}},
			Partitions: []PartitionWindow{{
				From: 5 * logical.Time(logical.Millisecond), To: 6 * logical.Time(logical.Millisecond),
				GroupA: []uint16{1, 2}, GroupB: []uint16{3, 4, 5},
			}},
			Jitter: []JitterBurst{{
				From: 0, To: 3 * logical.Time(logical.Millisecond),
				A: 2, B: 3, Extra: 400 * logical.Microsecond,
			}},
		},
	}
	want := runStarCfg(t, cfg, 1, 5, 12)
	if len(want) == 0 {
		t.Fatal("single-kernel reference produced no traffic")
	}
	for _, parts := range []int{2, 4, 5} {
		got := runStarCfg(t, cfg, parts, 5, 12)
		if len(got) != len(want) {
			t.Fatalf("parts=%d: %d deliveries, want %d", parts, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parts=%d: delivery %d = %q, want %q", parts, i, got[i], want[i])
			}
		}
	}
}

func TestClusterCountsUnknownHostDrops(t *testing.T) {
	fed := des.NewFederation(1, 2)
	c, err := NewCluster(fed, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h0 := c.AddHost(0, "a")
	ep := h0.MustBind(1)
	fed.Kernel(0).At(0, func() {
		ep.Send(Addr{Host: 999, Port: 1}, []byte{1})
	})
	fed.RunAll()
	if c.Dropped() != 1 {
		t.Fatalf("dropped = %d", c.Dropped())
	}
	if c.Delivered() != 0 {
		t.Fatalf("delivered = %d", c.Delivered())
	}
}

func TestClusterCrossPartitionDeliveredCount(t *testing.T) {
	fed := des.NewFederation(1, 2)
	c, err := NewCluster(fed, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h0 := c.AddHost(0, "a")
	h1 := c.AddHost(1, "b")
	got := 0
	sink := h1.MustBind(7)
	sink.OnReceive(func(dg Datagram) { got++ })
	src := h0.MustBind(7)
	fed.Kernel(0).At(0, func() {
		src.Send(Addr{Host: h1.ID(), Port: 7}, []byte("x"))
	})
	fed.RunAll()
	if got != 1 || c.Delivered() != 1 {
		t.Fatalf("got=%d delivered=%d", got, c.Delivered())
	}
	if p, ok := c.PartitionOf(h1.ID()); !ok || p != 1 {
		t.Fatalf("PartitionOf = %d,%v", p, ok)
	}
}

func TestClusterRejectsBadConfigs(t *testing.T) {
	// Background loss is supported since drops moved to counter-based
	// per-link streams (it used to be rejected as a shared-stream
	// determinism hazard).
	if _, err := NewCluster(des.NewFederation(1, 2), Config{Faults: &FaultPlan{DropRate: 0.1}}, nil); err != nil {
		t.Errorf("DropRate must be accepted now: %v", err)
	}
	if _, err := NewCluster(des.NewFederation(1, 2), Config{DefaultLatency: jitterNoMin{}}, nil); err == nil {
		t.Error("latency model without MinLatency must be rejected")
	}
	// Invalid fault configurations surface as errors, not panics.
	if _, err := NewCluster(des.NewFederation(1, 2), Config{Faults: &FaultPlan{DropRate: 1.5}}, nil); err == nil {
		t.Error("out-of-range DropRate must be rejected")
	}
	if _, err := NewCluster(des.NewFederation(1, 2), Config{
		Faults: &FaultPlan{Loss: []LossWindow{{From: 5, To: 1, Rate: 0.5}}},
	}, nil); err == nil {
		t.Error("ill-formed fault plan must be rejected")
	}
	if _, err := NewCluster(des.NewFederation(1, 2), Config{DefaultLatency: FixedLatency(0)}, nil); err == nil {
		t.Error("zero lookahead must be rejected")
	}
	// A jittered model with an RNG would be consulted from parallel kernel
	// goroutines (data race) and draw in partition-dependent order
	// (nondeterminism): reject it even though it has a MinLatency.
	fed2 := des.NewFederation(1, 2)
	jl := &JitterLatency{Base: 100 * logical.Microsecond, Sigma: 10 * logical.Microsecond,
		Rng: fed2.Kernel(0).Rand("jitter")}
	if _, err := NewCluster(fed2, Config{DefaultLatency: jl}, nil); err == nil {
		t.Error("RNG-backed latency model must be rejected")
	}
}

type jitterNoMin struct{}

func (jitterNoMin) Latency(int) logical.Duration { return logical.Millisecond }
