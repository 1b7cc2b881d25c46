package simnet

import (
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
)

// pumpPackets sends n packets from h1 to h2 at a fixed cadence and
// returns the delivery times.
func pumpPackets(k *des.Kernel, src, dst *Endpoint, n int, gap logical.Duration) *[]logical.Time {
	times := &[]logical.Time{}
	dst.OnReceive(func(dg Datagram) { *times = append(*times, k.Now()) })
	k.Spawn("tx", func(p *des.Process) {
		for i := 0; i < n; i++ {
			src.Send(dst.Addr(), []byte{byte(i)})
			p.Sleep(gap)
		}
	})
	return times
}

func TestFaultPlanBackgroundDrops(t *testing.T) {
	k := des.NewKernel(1)
	n := NewNetwork(k, Config{Faults: &FaultPlan{DropRate: 0.5}})
	h1, h2 := n.AddHost("a", nil), n.AddHost("b", nil)
	times := pumpPackets(k, h1.MustBind(1), h2.MustBind(2), 200, logical.Millisecond)
	k.RunAll()
	k.Shutdown()
	got := len(*times)
	if got == 0 || got == 200 {
		t.Fatalf("deliveries = %d, want a strict subset of 200", got)
	}
	if n.Dropped() != uint64(200-got) {
		t.Fatalf("dropped = %d, delivered %d of 200", n.Dropped(), got)
	}
	// Loose binomial sanity bound: p=0.5 over 200 trials.
	if got < 60 || got > 140 {
		t.Fatalf("deliveries = %d, implausible for p=0.5", got)
	}
}

// The same (plan, link, packet index) must meet the same fate regardless
// of what other traffic the network carries — the counter-based
// construction's defining property.
func TestFaultDropsIndependentOfUnrelatedTraffic(t *testing.T) {
	run := func(noise bool) []logical.Time {
		k := des.NewKernel(1)
		n := NewNetwork(k, Config{Faults: &FaultPlan{DropRate: 0.4}})
		h1, h2, h3 := n.AddHost("a", nil), n.AddHost("b", nil), n.AddHost("c", nil)
		times := pumpPackets(k, h1.MustBind(1), h2.MustBind(2), 100, logical.Millisecond)
		if noise {
			// Interleaved unrelated traffic on other links.
			src := h3.MustBind(3)
			sink := h2.MustBind(4)
			sink.OnReceive(func(Datagram) {})
			k.Spawn("noise", func(p *des.Process) {
				for i := 0; i < 300; i++ {
					src.Send(sink.Addr(), []byte{0})
					p.Sleep(337 * logical.Microsecond)
				}
			})
		}
		k.RunAll()
		k.Shutdown()
		return *times
	}
	quiet, noisy := run(false), run(true)
	if len(quiet) != len(noisy) {
		t.Fatalf("deliveries diverged with unrelated traffic: %d vs %d", len(quiet), len(noisy))
	}
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("delivery %d at %v vs %v", i, quiet[i], noisy[i])
		}
	}
}

func TestPartitionWindowBlacksOutBothDirections(t *testing.T) {
	win := PartitionWindow{
		From: logical.Time(10 * logical.Millisecond), To: logical.Time(20 * logical.Millisecond),
		GroupA: []uint16{1}, GroupB: []uint16{2},
	}
	k := des.NewKernel(1)
	n := NewNetwork(k, Config{Faults: &FaultPlan{Partitions: []PartitionWindow{win}}})
	h1, h2 := n.AddHost("a", nil), n.AddHost("b", nil)
	e1, e2 := h1.MustBind(1), h2.MustBind(1)
	fwd := pumpPackets(k, e1, h2.MustBind(2), 30, logical.Millisecond)
	rev := pumpPackets(k, e2, h1.MustBind(2), 30, logical.Millisecond)
	k.RunAll()
	k.Shutdown()
	// 30 packets at 1ms cadence starting at t=0: sends in [10ms, 20ms)
	// are severed in both directions.
	if len(*fwd) != 20 || len(*rev) != 20 {
		t.Fatalf("deliveries fwd=%d rev=%d, want 20 each", len(*fwd), len(*rev))
	}
	for _, at := range append(append([]logical.Time{}, *fwd...), *rev...) {
		sent := at - logical.Time(50*logical.Microsecond) // default latency
		if sent >= win.From && sent < win.To {
			t.Fatalf("delivery of packet sent at %v inside blackout", sent)
		}
	}
}

// A partition must keep each island internally connected: only traffic
// crossing the cut is severed, including under the empty-group
// (complement) shorthand.
func TestPartitionWindowKeepsIslandsConnected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		groupA []uint16
		groupB []uint16
	}{
		{"explicit groups", []uint16{1, 2}, []uint16{3}},
		{"complement shorthand", []uint16{1, 2}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			win := PartitionWindow{From: 0, To: logical.Forever, GroupA: tc.groupA, GroupB: tc.groupB}
			k := des.NewKernel(1)
			n := NewNetwork(k, Config{Faults: &FaultPlan{Partitions: []PartitionWindow{win}}})
			h1, h2, h3 := n.AddHost("a", nil), n.AddHost("b", nil), n.AddHost("c", nil)
			_ = h3
			intra := pumpPackets(k, h1.MustBind(1), h2.MustBind(1), 10, logical.Millisecond)
			cross := pumpPackets(k, h1.MustBind(2), h3.MustBind(1), 10, logical.Millisecond)
			k.RunAll()
			k.Shutdown()
			if len(*intra) != 10 {
				t.Fatalf("intra-island deliveries = %d of 10: partition severed its own island", len(*intra))
			}
			if len(*cross) != 0 {
				t.Fatalf("cross-island deliveries = %d, want 0", len(*cross))
			}
		})
	}
}

func TestLossWindowElevatesLossOnSelectedLink(t *testing.T) {
	plan := &FaultPlan{Loss: []LossWindow{{
		From: 0, To: logical.Forever, A: 1, B: 2, Rate: 0.9,
	}}}
	k := des.NewKernel(1)
	n := NewNetwork(k, Config{Faults: plan})
	h1, h2, h3 := n.AddHost("a", nil), n.AddHost("b", nil), n.AddHost("c", nil)
	lossy := pumpPackets(k, h1.MustBind(1), h2.MustBind(1), 100, logical.Millisecond)
	clean := pumpPackets(k, h1.MustBind(2), h3.MustBind(1), 100, logical.Millisecond)
	k.RunAll()
	k.Shutdown()
	if len(*clean) != 100 {
		t.Fatalf("unselected link lost packets: %d of 100", len(*clean))
	}
	if len(*lossy) > 40 {
		t.Fatalf("selected link delivered %d of 100 at rate 0.9", len(*lossy))
	}
}

func TestJitterBurstDelaysWithoutLoss(t *testing.T) {
	const extra = 2 * logical.Millisecond
	plan := &FaultPlan{Jitter: []JitterBurst{{From: 0, To: logical.Forever, Extra: extra}}}
	k := des.NewKernel(1)
	n := NewNetwork(k, Config{Faults: plan})
	h1, h2 := n.AddHost("a", nil), n.AddHost("b", nil)
	times := pumpPackets(k, h1.MustBind(1), h2.MustBind(1), 50, 5*logical.Millisecond)
	k.RunAll()
	k.Shutdown()
	if len(*times) != 50 {
		t.Fatalf("jitter must not lose packets: %d of 50", len(*times))
	}
	base := logical.Duration(50 * logical.Microsecond)
	varies := false
	for i, at := range *times {
		sent := logical.Time(i) * logical.Time(5*logical.Millisecond)
		d := logical.Duration(at - sent)
		if d < base || d > base+extra {
			t.Fatalf("packet %d delay %v outside [%v, %v]", i, d, base, base+extra)
		}
		if d != base {
			varies = true
		}
	}
	if !varies {
		t.Fatal("jitter burst added no delay to any packet")
	}
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []Config{
		{Faults: &FaultPlan{DropRate: 1.5}},
		{Faults: &FaultPlan{Loss: []LossWindow{{Rate: -0.1}}}},
		{Faults: &FaultPlan{Loss: []LossWindow{{From: 5, To: 1, Rate: 0.5}}}},
		{Faults: &FaultPlan{Partitions: []PartitionWindow{{From: 9, To: 2}}}},
		{Faults: &FaultPlan{Jitter: []JitterBurst{{Extra: -logical.Millisecond}}}},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d: want panic", i)
				}
			}()
			NewNetwork(des.NewKernel(1), cfg)
		}()
	}
}

func TestHostCrashSilencesAndDropsInFlight(t *testing.T) {
	k := des.NewKernel(1)
	n := NewNetwork(k, Config{DefaultLatency: FixedLatency(logical.Millisecond)})
	h1, h2 := n.AddHost("a", nil), n.AddHost("b", nil)
	src := h1.MustBind(1)
	sink := h2.MustBind(1)
	got := 0
	sink.OnReceive(func(Datagram) { got++ })
	back := h1.MustBind(2)
	backGot := 0
	back.OnReceive(func(Datagram) { backGot++ })

	// One packet lands before the crash, one is in flight at crash time,
	// one is sent by the crashed host afterwards.
	k.At(0, func() { src.Send(sink.Addr(), []byte("pre")) })
	k.At(logical.Time(2500*logical.Microsecond), func() { src.Send(sink.Addr(), []byte("inflight")) })
	h2.Crash(logical.Time(3 * logical.Millisecond))
	k.At(logical.Time(4*logical.Millisecond), func() {
		if !h2.Down() {
			t.Error("host must report Down after crash")
		}
		// The crashed host transmits nothing, even through stale handles.
		sink.Send(back.Addr(), []byte("ghost"))
	})
	k.RunAll()
	k.Shutdown()
	if got != 1 {
		t.Fatalf("deliveries to crashed host = %d, want only the pre-crash packet", got)
	}
	if backGot != 0 {
		t.Fatalf("crashed host transmitted %d packets", backGot)
	}
	if n.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1 (the in-flight packet)", n.Dropped())
	}
}

func TestHostRestartRebindsAndStaleCloseIsHarmless(t *testing.T) {
	k := des.NewKernel(1)
	n := NewNetwork(k, Config{})
	h1, h2 := n.AddHost("a", nil), n.AddHost("b", nil)
	old := h2.MustBind(100)
	old.OnReceive(func(Datagram) { t.Error("old endpoint must never receive after crash") })
	src := h1.MustBind(1)

	h2.Crash(logical.Time(logical.Millisecond))
	// Bind while down must fail; checked from inside the crashed window.
	var bindErr error
	k.At(logical.Time(1500*logical.Microsecond), func() {
		_, bindErr = h2.Bind(200)
	})
	k.Run(logical.Time(1600 * logical.Microsecond))
	if bindErr == nil {
		t.Fatal("Bind on a down host must fail")
	}

	got := 0
	h2.Restart(logical.Time(2*logical.Millisecond), func() {
		fresh := h2.MustBind(100) // same port as before the crash
		fresh.OnReceive(func(Datagram) { got++ })
		// A stale Close from the pre-crash stack must not unbind the
		// successor endpoint.
		old.Close()
	})
	k.At(logical.Time(3*logical.Millisecond), func() {
		src.Send(Addr{Host: h2.ID(), Port: 100}, []byte("hello"))
	})
	k.RunAll()
	k.Shutdown()
	if got != 1 {
		t.Fatalf("deliveries after restart = %d, want 1", got)
	}
}

func TestCrashLeavesMulticastGroups(t *testing.T) {
	k := des.NewKernel(1)
	n := NewNetwork(k, Config{})
	h1, h2 := n.AddHost("a", nil), n.AddHost("b", nil)
	group := Addr{Host: MulticastBase + 9, Port: 5}
	member := h2.MustBind(5)
	got := 0
	member.OnReceive(func(Datagram) { got++ })
	n.JoinTopic(group, 1, member)
	src := h1.MustBind(5)
	n.JoinTopic(group, 1, src)

	k.At(0, func() { src.SendTopic(group, 1, []byte("one")) })
	h2.Crash(logical.Time(logical.Millisecond))
	k.At(logical.Time(2*logical.Millisecond), func() { src.SendTopic(group, 1, []byte("two")) })
	k.RunAll()
	k.Shutdown()
	if got != 1 {
		t.Fatalf("group deliveries = %d, want 1 (pre-crash only)", got)
	}
}
