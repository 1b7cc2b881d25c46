package simnet

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/logical"
)

// FaultPlan is a seeded, deterministic fault schedule for a Network or
// Cluster: background packet loss, per-link loss windows, network
// partitions (bidirectional link blackouts) and jitter bursts.
//
// Every per-packet decision is a pure function of (fault seed, directed
// link, packet index, send time): the plan draws from counter-based
// streams (des.Mix3) rather than sequential RNG streams, so a packet's
// fate does not depend on how sends interleave with unrelated traffic.
// That is the property that lets a federated Cluster run with nonzero
// drop rates and still produce byte-identical results to a single
// kernel — the packet index on a directed link src→dst only advances on
// sends from src's host, which fire in identical order in both modes,
// whereas a shared sequential drop stream would be consumed in global
// delivery order on one kernel but in per-partition order on a
// federation.
//
// A FaultPlan must be treated as immutable once installed, and the same
// plan value must be installed on every execution mode being compared.
// Faults apply to inter-host *unicast* traffic only: loopback delivery
// models the host's own stack, and multicast fan-out models Ethernet
// multicast (the SD control plane), whose per-partition semantics on a
// federated Cluster would otherwise consume link counters
// mode-dependently. Service discovery is disturbed through the host
// lifecycle (Host.Crash silences a provider until its offers' TTLs
// expire), not through packet-level faults.
type FaultPlan struct {
	// Seed salts every counter-based draw. Two plans that differ only in
	// Seed produce independent fault patterns.
	Seed uint64 `json:"seed,omitempty"`
	// DropRate is the background probability of silently losing any
	// inter-host packet.
	DropRate float64 `json:"dropRate,omitempty"`
	// Loss elevates the loss probability on selected links during
	// windows of simulated time.
	Loss []LossWindow `json:"loss,omitempty"`
	// Partitions black out all traffic between two host groups during
	// windows of simulated time (both directions, no randomness).
	Partitions []PartitionWindow `json:"partitions,omitempty"`
	// Jitter adds bounded extra one-way delay on selected links during
	// windows of simulated time. Extra delay is always non-negative, so
	// a link model's MinLatency lower bound — and with it the federation
	// lookahead — remains valid under any jitter burst.
	Jitter []JitterBurst `json:"jitter,omitempty"`
}

// LossWindow raises the drop probability for packets between hosts A
// and B (either direction) sent during [From, To). A or B equal to zero
// acts as a wildcard matching any host. When several windows match one
// packet, the highest rate (including the background DropRate) applies.
type LossWindow struct {
	// From bounds the window start: a packet is affected iff its send
	// time lies in [From, To).
	From logical.Time `json:"fromNs"`
	// To bounds the window end (exclusive).
	To logical.Time `json:"toNs"`
	// A selects one endpoint of the host pair (either direction);
	// zero = any host.
	A uint16 `json:"a,omitempty"`
	// B selects the other endpoint; zero = any host.
	B uint16 `json:"b,omitempty"`
	// Rate is the drop probability inside the window.
	Rate float64 `json:"rate"`
}

// PartitionWindow models a network partition: every packet crossing
// from one side to the other (either direction) sent during [From, To)
// is dropped, while each island stays internally connected — the
// defining property of a partition. An empty group denotes the
// complement of the populated one, so one populated group against an
// empty one isolates that group from the rest of the network; both
// groups empty is a global blackout (no packet crosses anywhere).
type PartitionWindow struct {
	// From bounds the blackout start: a packet is severed iff its send
	// time lies in [From, To).
	From logical.Time `json:"fromNs"`
	// To bounds the blackout end (exclusive).
	To logical.Time `json:"toNs"`
	// GroupA is one side of the partition; empty means "every host not
	// in GroupB".
	GroupA []uint16 `json:"groupA,omitempty"`
	// GroupB is the other side; empty means "every host not in GroupA".
	GroupB []uint16 `json:"groupB,omitempty"`
}

// JitterBurst adds uniform extra delay in [0, Extra] to packets between
// hosts A and B (either direction) sent during [From, To). A or B equal
// to zero acts as a wildcard. Overlapping bursts accumulate. Because
// the extra delay is per-packet random, a burst reorders traffic — the
// failure mode that corrupts one-slot buffers in the stock APD pipeline
// (experiment E11).
type JitterBurst struct {
	// From bounds the burst start: a packet is affected iff its send
	// time lies in [From, To).
	From logical.Time `json:"fromNs"`
	// To bounds the burst end (exclusive).
	To logical.Time `json:"toNs"`
	// A selects one endpoint of the host pair (either direction);
	// zero = any host.
	A uint16 `json:"a,omitempty"`
	// B selects the other endpoint; zero = any host.
	B uint16 `json:"b,omitempty"`
	// Extra is the maximum added one-way delay; each affected packet
	// draws uniformly from [0, Extra].
	Extra logical.Duration `json:"extraNs"`
}

// Validate checks the plan's static constraints: probabilities within
// [0, 1], windows well-formed, jitter non-negative.
func (p *FaultPlan) Validate() error {
	if p.DropRate < 0 || p.DropRate > 1 {
		return fmt.Errorf("simnet: fault plan DropRate %v outside [0,1]", p.DropRate)
	}
	for i, w := range p.Loss {
		if w.Rate < 0 || w.Rate > 1 {
			return fmt.Errorf("simnet: loss window %d rate %v outside [0,1]", i, w.Rate)
		}
		if w.To < w.From {
			return fmt.Errorf("simnet: loss window %d ends before it starts", i)
		}
	}
	for i, w := range p.Partitions {
		if w.To < w.From {
			return fmt.Errorf("simnet: partition window %d ends before it starts", i)
		}
	}
	for i, w := range p.Jitter {
		if w.Extra < 0 {
			return fmt.Errorf("simnet: jitter burst %d has negative extra delay", i)
		}
		if w.To < w.From {
			return fmt.Errorf("simnet: jitter burst %d ends before it starts", i)
		}
	}
	return nil
}

// hostMatch reports whether selector sel matches host h (0 = wildcard).
func hostMatch(sel, h uint16) bool { return sel == 0 || sel == h }

// pairMatch reports whether the (a, b) selector matches the directed
// pair (src, dst) in either orientation.
func pairMatch(a, b, src, dst uint16) bool {
	return (hostMatch(a, src) && hostMatch(b, dst)) ||
		(hostMatch(a, dst) && hostMatch(b, src))
}

// groupHas reports plain group membership.
func groupHas(group []uint16, h uint16) bool {
	for _, g := range group {
		if g == h {
			return true
		}
	}
	return false
}

// severs reports whether the window separates src from dst: true iff
// the two hosts sit on opposite sides of the partition. Traffic within
// one island is never severed (except under the both-empty global
// blackout).
func (w *PartitionWindow) severs(src, dst uint16) bool {
	aEmpty, bEmpty := len(w.GroupA) == 0, len(w.GroupB) == 0
	switch {
	case aEmpty && bEmpty:
		return true // global blackout
	case aEmpty:
		return groupHas(w.GroupB, src) != groupHas(w.GroupB, dst)
	case bEmpty:
		return groupHas(w.GroupA, src) != groupHas(w.GroupA, dst)
	default:
		return (groupHas(w.GroupA, src) && groupHas(w.GroupB, dst)) ||
			(groupHas(w.GroupA, dst) && groupHas(w.GroupB, src))
	}
}

// Counter-stream purposes: distinct salts keep the drop draw and the
// jitter draw of the same packet independent.
const (
	faultPurposeDrop   = 0x01
	faultPurposeJitter = 0x02
)

// linkStream builds the Mix3 stream key for a directed link and purpose.
func linkStream(src, dst uint16, purpose uint64) uint64 {
	return uint64(src)<<32 | uint64(dst)<<16 | purpose
}

// verdict computes the fate of the idx-th packet on the directed link
// src→dst sent at simulated time now: whether the packet is dropped and
// how much extra one-way delay it accrues. It is a pure function of its
// arguments, so the caller only has to supply a deterministic packet
// index to obtain an interleaving-independent fault pattern. netSeed is
// the network's label-derived fault seed (identical on every partition
// kernel of a federation, because all partitions share the root seed).
func (p *FaultPlan) verdict(netSeed uint64, src, dst uint16, idx uint64, now logical.Time) (drop bool, extra logical.Duration) {
	for i := range p.Partitions {
		w := &p.Partitions[i]
		if now >= w.From && now < w.To && w.severs(src, dst) {
			return true, 0
		}
	}
	rate := p.DropRate
	for _, w := range p.Loss {
		if now >= w.From && now < w.To && pairMatch(w.A, w.B, src, dst) && w.Rate > rate {
			rate = w.Rate
		}
	}
	if rate > 0 {
		h := des.Mix3(netSeed^p.Seed, linkStream(src, dst, faultPurposeDrop), idx)
		if des.UnitFloat64(h) < rate {
			return true, 0
		}
	}
	for i, w := range p.Jitter {
		if w.Extra > 0 && now >= w.From && now < w.To && pairMatch(w.A, w.B, src, dst) {
			h := des.Mix3(netSeed^p.Seed, linkStream(src, dst, faultPurposeJitter+uint64(i)<<8), idx)
			extra += logical.Duration(h % uint64(w.Extra+1))
		}
	}
	return false, extra
}
