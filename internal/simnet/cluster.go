package simnet

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/logical"
)

// Cluster partitions a simulated network across the kernels of a
// des.Federation: each partition owns a Network on its own kernel, hosts
// are pinned to partitions, intra-partition traffic schedules locally
// exactly as on a plain Network, and inter-partition traffic crosses
// timestamped federation channels whose lookahead is the minimum latency
// of the corresponding link model.
//
// Determinism contract (what makes a federated run byte-identical to a
// single-kernel run of the same topology and seed):
//
//   - Cross-partition latency models must be RNG-free (they must
//     implement MinLatencyModel, and their draws must not consume shared
//     random streams — FixedLatency is the canonical choice). A shared
//     jitter stream would be consumed in global event order on one kernel
//     but in per-partition order on a federation.
//   - FaultPlans are fully supported: packet fates are
//     counter-based (see FaultPlan) — keyed on (seed, directed link,
//     packet index) rather than drawn from a shared sequential stream —
//     so a drop, blackout or jitter decision is a pure function that
//     both execution modes evaluate identically.
//   - Interest topics are per-partition: a topic member receives a
//     SendTopic only from senders on its own partition (service discovery
//     therefore spans one partition; federated scenarios use static peer
//     configuration, ara.Runtime.StaticProxy).
type Cluster struct {
	parts       []*Network
	owner       []int // host id -> partition; IDs are dense from 1, owner[0] unused
	chans       [][]*des.Channel
	model       MinLatencyModel
	switchDelay logical.Duration
	nextID      uint16
}

// NewCluster creates a partitioned network over the federation. The
// configuration applies uniformly: every partition's Network uses it for
// intra-partition traffic, and cross-partition links use the same default
// latency model, switch delay and fault plan, so a host pair observes
// identical timing (and identical packet fates) whether or not it is
// co-partitioned. DefaultLatency must implement MinLatencyModel and have
// a positive minimum (plus switch delay). Faults may be set:
// counter-based fault streams are interleaving-independent, so they do
// not break cross-mode byte-equality — and because fault-plan jitter
// only ever adds delay, the lookahead derived from the link model's
// minimum remains conservative under any plan. A one-partition cluster
// is a plain Network on the federation's lone kernel.
//
// Federation channels exist only for the directed partition pairs the
// route predicate admits (nil admits every pair). A sparser channel
// graph directly widens the federation's conservative grants: the
// coordinator's lookahead matrix routes the synchronization constraint
// between undeclared pairs through multi-hop paths (or not at all), so
// partitions that never exchange traffic stop throttling each other.
// Sending a datagram across an undeclared partition pair panics — the
// route set is a topology contract, not a filter. The predicate is
// consulted once per ordered pair at construction time, in (from, to)
// creation order, so it also fixes the channels' deterministic creation
// order.
func NewCluster(fed *des.Federation, cfg Config, route func(from, to int) bool) (*Cluster, error) {
	// Surface fault-plan mistakes as errors here; the same check panics
	// later in NewNetwork, whose signature predates it.
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	model := cfg.DefaultLatency
	if model == nil {
		model = FixedLatency(50 * logical.Microsecond)
		cfg.DefaultLatency = model
	}
	mm, ok := model.(MinLatencyModel)
	if !ok {
		return nil, fmt.Errorf("simnet: cluster default latency model %T does not implement MinLatencyModel", model)
	}
	if err := crossPartitionSafe(mm); err != nil {
		return nil, err
	}
	lookahead := mm.MinLatency() + cfg.SwitchDelay
	if lookahead <= 0 {
		return nil, fmt.Errorf("simnet: cluster needs positive cross-partition lookahead (min latency + switch delay)")
	}
	p := fed.Partitions()
	c := &Cluster{
		parts:       make([]*Network, p),
		owner:       []int{-1},
		chans:       make([][]*des.Channel, p),
		model:       mm,
		switchDelay: cfg.SwitchDelay,
	}
	for i := 0; i < p; i++ {
		c.parts[i] = NewNetwork(fed.Kernel(i), cfg)
		c.chans[i] = make([]*des.Channel, p)
	}
	for from := 0; from < p; from++ {
		from := from
		for to := 0; to < p; to++ {
			if from == to || (route != nil && !route(from, to)) {
				continue
			}
			c.chans[from][to] = fed.Channel(from, to, lookahead)
		}
		c.parts[from].router = func(src *Endpoint, dg Datagram) bool {
			return c.route(from, src, dg)
		}
	}
	return c, nil
}

// AddHost attaches a platform, without a local clock, to the given
// partition. Host IDs are allocated by the cluster so that addresses
// are unique network-wide.
func (c *Cluster) AddHost(part int, name string) *Host {
	c.nextID++
	c.owner = append(c.owner, part)
	return c.parts[part].addHostID(c.nextID, name, nil)
}

// PartitionOf returns the partition owning the host ID.
func (c *Cluster) PartitionOf(host uint16) (int, bool) {
	if host == 0 || int(host) >= len(c.owner) {
		return 0, false
	}
	return c.owner[host], true
}

// Delivered sums delivered datagrams across all partitions. Each
// datagram is counted exactly once, by the partition that owns its
// destination host.
func (c *Cluster) Delivered() uint64 {
	var n uint64
	for _, p := range c.parts {
		n += p.Delivered()
	}
	return n
}

// ControlPlane sums the partitions' control-plane counters (see
// Network.ControlPlane): topic send calls and the datagrams
// they fanned out. Fan-out is per-partition, so each fanned-out
// datagram is counted once, by the sender's partition.
func (c *Cluster) ControlPlane() (sends, fanout uint64) {
	for _, p := range c.parts {
		s, f := p.ControlPlane()
		sends += s
		fanout += f
	}
	return sends, fanout
}

// Dropped sums dropped datagrams across all partitions.
func (c *Cluster) Dropped() uint64 {
	var n uint64
	for _, p := range c.parts {
		n += p.Dropped()
	}
	return n
}

// crossPartitionSafe rejects latency models whose Latency draws
// randomness: the model instance is shared by every partition and
// consulted from parallel kernel goroutines, so a stateful model is both
// a data race and a determinism leak (draw order would depend on the
// partitioning). Only JitterLatency carries an RNG today; custom models
// must be stateless by the same contract.
func crossPartitionSafe(m MinLatencyModel) error {
	if j, ok := m.(*JitterLatency); ok && j.Rng != nil {
		return fmt.Errorf("simnet: cluster links must use RNG-free latency models (JitterLatency with Rng draws in partition-dependent order)")
	}
	return nil
}

// route forwards a cross-partition datagram through the federation
// channel. Runs on the sending partition's kernel goroutine. Returns
// false when the destination host is unknown cluster-wide, in which case
// the sending Network applies its usual unknown-host policy (the packet
// is scheduled locally and dropped at delivery time, mirroring the
// single-kernel count).
func (c *Cluster) route(from int, src *Endpoint, dg Datagram) bool {
	to, ok := c.PartitionOf(dg.Dst.Host)
	if !ok {
		return false
	}
	// The sending partition owns the directed-link packet counter, so the
	// fault verdict here consumes exactly the index a single-kernel run
	// would for this packet.
	drop, extra := c.parts[from].faultVerdict(dg.Src.Host, dg.Dst.Host)
	if drop {
		c.parts[from].dropped++
		return true
	}
	lat := c.model.Latency(len(dg.Payload)) + c.switchDelay + extra
	target := c.parts[to]
	ch := c.chans[from][to]
	if ch == nil {
		panic(fmt.Sprintf(
			"simnet: datagram %d->%d crosses partitions %d->%d with no declared route (see NewCluster)",
			dg.Src.Host, dg.Dst.Host, from, to))
	}
	at := c.parts[from].k.Now().Add(lat)
	// Closure-free send: the carrier is borrowed from the sending
	// partition's pool (this goroutine) and released into the target's
	// when the delivery fires (the target kernel's goroutine) — see
	// deliverArg for why the hand-off is race-free.
	ch.Send(at, deliverFn, c.parts[from].borrowDeliver(target, dg))
	return true
}
