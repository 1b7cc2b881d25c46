// Package simnet models the evaluation network of the paper: platforms
// (the two MinnowBoard Turbot boards) connected through a store-and-forward
// Ethernet switch, with configurable latency and jitter.
//
// The model is intentionally at datagram granularity (SOME/IP runs over
// UDP in the APD demonstrator). An endpoint's receive callback consumes
// each inbound datagram as a kernel event; delivery times are computed
// deterministically from seeded randomness, so a given topology and seed
// always produces the same packet schedule.
package simnet

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/des"
	"repro/internal/logical"
)

// Addr identifies an endpoint: a (host, port) pair. Hosts are small
// integers assigned by the network; ports are chosen by the application
// (mirroring UDP ports). Host values at or above MulticastBase denote
// multicast groups, which scope interest topics (see JoinTopic).
type Addr struct {
	// Host is the network-assigned platform ID (or multicast group at or
	// above MulticastBase).
	Host uint16
	// Port is the application-chosen endpoint number.
	Port uint16
}

// MulticastBase is the first host number reserved for multicast groups;
// platform host IDs lie below it.
const MulticastBase uint16 = 0xFF00

// IsMulticast reports whether the address denotes a multicast group.
func (a Addr) IsMulticast() bool { return a.Host >= MulticastBase }

// Network names the substrate, satisfying the transport-independent
// address interface of the someip package (net.Addr shape).
func (a Addr) Network() string { return "sim" }

// String renders the address as "host:port".
func (a Addr) String() string { return fmt.Sprintf("%d:%d", a.Host, a.Port) }

// Datagram is a routed message.
type Datagram struct {
	// Src and Dst are the source and destination endpoint addresses.
	Src, Dst Addr
	// Payload is the carried bytes (owned by the receiver; senders'
	// buffers are copied on Send).
	Payload []byte
	// SentAt is the global simulated time the datagram entered the network.
	SentAt logical.Time
}

// LatencyModel computes the one-way latency for a packet of the given size.
type LatencyModel interface {
	Latency(size int) logical.Duration
}

// MinLatencyModel is a LatencyModel with a known lower bound. Latency
// models used on cross-partition links of a federated Cluster must
// implement it: the bound supplies the conservative lookahead that lets
// partition kernels advance in parallel.
type MinLatencyModel interface {
	LatencyModel
	// MinLatency returns a lower bound on Latency(size) for every size.
	MinLatency() logical.Duration
}

// FixedLatency is a constant-latency model.
type FixedLatency logical.Duration

// Latency implements LatencyModel.
func (f FixedLatency) Latency(int) logical.Duration { return logical.Duration(f) }

// MinLatency implements MinLatencyModel.
func (f FixedLatency) MinLatency() logical.Duration { return logical.Duration(f) }

// JitterLatency models base propagation delay plus per-byte serialization
// cost plus truncated-Gaussian jitter. This is the model used for the
// Figure 5 experiments: Ethernet-scale base latency with submillisecond
// jitter.
type JitterLatency struct {
	// Base is the fixed propagation delay.
	Base logical.Duration
	// PerByte is the serialization cost per payload byte (e.g. 8ns/byte
	// for 1 Gbit/s).
	PerByte logical.Duration
	// Sigma is the standard deviation of the Gaussian jitter.
	Sigma logical.Duration
	// Max caps the total jitter (truncation); zero means 4*Sigma.
	Max logical.Duration
	// Rng draws the jitter. It must be a stream owned by the kernel the
	// model is consulted on (determinism), which is why RNG-backed
	// models are rejected on cross-partition Cluster links.
	Rng *des.Rand
}

// Latency implements LatencyModel.
func (j *JitterLatency) Latency(size int) logical.Duration {
	d := j.Base + logical.Duration(size)*j.PerByte
	if j.Sigma > 0 && j.Rng != nil {
		max := j.Max
		if max == 0 {
			max = 4 * j.Sigma
		}
		jit := logical.Duration(j.Rng.Norm(0, float64(j.Sigma)))
		if jit < 0 {
			jit = -jit
		}
		if jit > max {
			jit = max
		}
		d += jit
	}
	if d < 0 {
		d = 0
	}
	return d
}

// MinLatency implements MinLatencyModel: jitter and serialization cost are
// both non-negative, so the base propagation delay is the lower bound.
func (j *JitterLatency) MinLatency() logical.Duration {
	if j.Base < 0 {
		return 0
	}
	return j.Base
}

// Network is a collection of hosts joined by a switch fabric.
type Network struct {
	networkState
	// _ pads the network to whole cache lines on any word size, like
	// des.Kernel: a Cluster's partition networks are written on every
	// delivery by different goroutines and must not share a line.
	_ [64 - unsafe.Sizeof(networkState{})%64]byte
}

// networkState is a Network's fields, which Network pads.
type networkState struct {
	k *des.Kernel
	// hosts holds the network's hosts by host ID, nil for IDs it does
	// not own (a Cluster's other partitions, and the unused ID 0).
	hosts   []*Host
	nextKey uint16
	// model is the latency of every inter-host packet.
	model LatencyModel
	// switchDelay models store-and-forward queuing through the switch for
	// packets crossing hosts; zero for loopback traffic.
	switchDelay logical.Duration
	// faults is the installed fault schedule (nil = fault-free network).
	// Packet fates are counter-based — see FaultPlan — which is what
	// keeps them identical between a single kernel and a federation.
	faults *FaultPlan
	// faultSeed is derived from the kernel's labeled stream space, so it
	// is identical on every partition kernel of a federation.
	faultSeed uint64
	// linkSeq counts packets per *directed* (src host, dst host) link;
	// the count is the packet index fed to FaultPlan.verdict. A directed
	// link's counter only advances on sends from its source host, which
	// fire in the same order under any partitioning.
	linkSeq   map[[2]uint16]uint64
	delivered uint64
	dropped   uint64
	// topics holds interest-based subscription lists: endpoints that
	// registered interest in a (group, topic) pair, in join order.
	// SendTopic fans out only to these members, replacing all-pairs
	// multicast for the SD control plane (O(platforms²) at startup)
	// with fan-out proportional to actual interest.
	topics map[topicKey][]*Endpoint
	// ctrlSends counts topic send calls; ctrlFanout counts
	// the datagrams those sends fanned out to members. Together they
	// measure the control-plane load (the quantity the city-scale
	// acceptance gate requires to be sub-quadratic in platforms).
	ctrlSends  uint64
	ctrlFanout uint64
	// router, when set, takes over datagrams addressed to hosts this
	// Network does not own. A federated Cluster installs one per partition
	// to forward cross-partition traffic through timestamped channels.
	router func(src *Endpoint, dg Datagram) bool
	// argFree recycles delivery carriers (see deliverArg): a scheduled
	// delivery rides a pooled kernel event closure-free, and the carrier
	// returns here — on this network's kernel goroutine — when it fires,
	// so the per-datagram hot path allocates only the payload copy.
	argFree []*deliverArg
}

// deliverArg carries one in-flight datagram: the delivering network and
// the datagram, stored in the scheduled event's arg slot instead of a
// capture closure. Carriers are pooled per network (argFree); under a
// federated Cluster a cross-partition carrier is borrowed from the
// sender's pool and released into the target's (each pool is touched
// only by its own kernel's goroutine, which keeps the hand-off
// race-free), so carriers migrate between partitions but are reused on
// both sides in steady state.
type deliverArg struct {
	n  *Network
	dg Datagram
}

// deliverFn is the package-level delivery body of every scheduled
// datagram. It releases the carrier into the delivering network's pool
// before delivering, so a send triggered by the receiver can reuse it
// immediately.
func deliverFn(a any) {
	da := a.(*deliverArg)
	n, dg := da.n, da.dg
	da.n = nil
	da.dg = Datagram{}
	n.argFree = append(n.argFree, da)
	n.deliver(dg)
}

// borrowDeliver takes a pooled carrier (or allocates one) and fills it
// with a delivery bound for network n. Must be called on the sending
// kernel's goroutine; sender is the pool owner.
func (sender *Network) borrowDeliver(n *Network, dg Datagram) *deliverArg {
	var da *deliverArg
	if ln := len(sender.argFree); ln > 0 {
		da = sender.argFree[ln-1]
		sender.argFree[ln-1] = nil
		sender.argFree = sender.argFree[:ln-1]
	} else {
		da = &deliverArg{}
	}
	da.n = n
	da.dg = dg
	return da
}

// Config configures a Network.
type Config struct {
	// DefaultLatency applies to every inter-host packet. If nil,
	// FixedLatency(50µs) is used.
	DefaultLatency LatencyModel
	// SwitchDelay is added to every inter-host packet (store-and-forward).
	SwitchDelay logical.Duration
	// Faults installs a fault schedule (background loss, loss windows,
	// partitions, jitter bursts); see FaultPlan. Nil is a lossless
	// network. The plan must not be mutated after the network is
	// created.
	Faults *FaultPlan
}

// NewNetwork creates a network on the kernel. It panics on an invalid
// fault plan (rates outside [0,1], ill-formed windows).
func NewNetwork(k *des.Kernel, cfg Config) *Network {
	model := cfg.DefaultLatency
	if model == nil {
		model = FixedLatency(50 * logical.Microsecond)
	}
	n := &Network{networkState: networkState{
		k:           k,
		model:       model,
		switchDelay: cfg.SwitchDelay,
		faultSeed:   k.Rand("simnet.fault").Uint64(),
		linkSeq:     map[[2]uint16]uint64{},
		topics:      map[topicKey][]*Endpoint{},
	}}
	if plan := cfg.Faults; plan != nil {
		if err := plan.Validate(); err != nil {
			panic(err)
		}
		n.faults = plan
	}
	return n
}

// faultVerdict consumes the directed-link packet counter src→dst and
// computes the packet's fate under the installed plan. Must be called
// exactly once per inter-host packet (unicast and Cluster.route share
// it), at send time, on the kernel owning the source host.
func (n *Network) faultVerdict(src, dst uint16) (drop bool, extra logical.Duration) {
	if n.faults == nil {
		return false, 0
	}
	dl := [2]uint16{src, dst}
	idx := n.linkSeq[dl]
	n.linkSeq[dl] = idx + 1
	return n.faults.verdict(n.faultSeed, src, dst, idx, n.k.Now())
}

// topicKey identifies one interest-based subscription list: a topic
// number scoped under a multicast group address.
type topicKey struct {
	group Addr
	topic uint64
}

// JoinTopic registers the endpoint's interest in topic under the
// multicast group address. SendTopic to that (group, topic) then
// delivers to the endpoint. Joining is idempotent; members receive in
// join order, which is the deterministic fan-out order the byte-
// equality gate relies on (join order is fixed by program structure,
// identical in single-kernel and federated execution). Panics on a
// non-multicast group address.
func (n *Network) JoinTopic(group Addr, topic uint64, e *Endpoint) {
	if !group.IsMulticast() {
		panic("simnet: JoinTopic on non-multicast address " + group.String())
	}
	k := topicKey{group, topic}
	for _, m := range n.topics[k] {
		if m == e {
			return
		}
	}
	n.topics[k] = append(n.topics[k], e)
}

// LeaveTopic withdraws the endpoint's interest in topic under group.
func (n *Network) LeaveTopic(group Addr, topic uint64, e *Endpoint) {
	k := topicKey{group, topic}
	members := n.topics[k]
	for i, m := range members {
		if m == e {
			n.topics[k] = append(members[:i:i], members[i+1:]...)
			if len(n.topics[k]) == 0 {
				delete(n.topics, k)
			}
			return
		}
	}
}

// ControlPlane returns the control-plane load so far: sends is the
// number of topic send calls, fanout the total datagrams
// those sends fanned out to members. With interest-based routing the
// fanout grows with actual interest, not with the square of the
// platform count.
func (n *Network) ControlPlane() (sends, fanout uint64) {
	return n.ctrlSends, n.ctrlFanout
}

// Kernel returns the simulation kernel.
func (n *Network) Kernel() *des.Kernel { return n.k }

// Delivered returns the number of datagrams delivered so far.
func (n *Network) Delivered() uint64 { return n.delivered }

// Dropped returns the number of datagrams dropped so far.
func (n *Network) Dropped() uint64 { return n.dropped }

// loopbackLatency is the intra-host delivery latency. It draws no
// randomness, so loopback traffic schedules identically on every
// partition count.
const loopbackLatency = 5 * logical.Microsecond

// Host is a simulated platform attached to the network.
type Host struct {
	net  *Network
	id   uint16
	name string
	// ports holds the bound endpoints in bind order. A host binds a
	// handful, so a linear search beats a map.
	ports []*Endpoint
	clock *des.LocalClock
	// down marks a crashed host: no endpoint is bound, sends from stale
	// endpoints are suppressed, deliveries drop.
	down bool
}

// AddHost attaches a new platform. The clock may be nil for hosts that
// never read local time.
func (n *Network) AddHost(name string, clock *des.LocalClock) *Host {
	n.nextKey++
	return n.addHostID(n.nextKey, name, clock)
}

// addHostID attaches a platform under an externally assigned host ID.
// A federated Cluster allocates IDs globally so that addresses stay
// unique across partitions.
func (n *Network) addHostID(id uint16, name string, clock *des.LocalClock) *Host {
	if n.host(id) != nil {
		panic(fmt.Sprintf("simnet: duplicate host id %d (%s)", id, name))
	}
	h := &Host{
		net:   n,
		id:    id,
		name:  name,
		clock: clock,
	}
	if int(id) >= len(n.hosts) {
		n.hosts = append(n.hosts, make([]*Host, int(id)+1-len(n.hosts))...)
	}
	n.hosts[id] = h
	return h
}

// host returns the network's host with the given ID, or nil when the
// network owns none.
func (n *Network) host(id uint16) *Host {
	if int(id) < len(n.hosts) {
		return n.hosts[id]
	}
	return nil
}

// ID returns the host's network identifier.
func (h *Host) ID() uint16 { return h.id }

// Net returns the network the host is attached to.
func (h *Host) Net() *Network { return h.net }

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// Clock returns the host's local clock (may be nil).
func (h *Host) Clock() *des.LocalClock { return h.clock }

// Down reports whether the host is currently crashed.
func (h *Host) Down() bool { return h.down }

// Crash schedules the host to fail at simulated time at: every bound
// endpoint closes and leaves its interest topics, packets still in
// flight toward the host are dropped at delivery time, and sends
// through stale endpoint handles are silently suppressed (a dead host
// transmits nothing — in particular it sends no SD stop-offer, so
// remote agents only learn of the loss through TTL expiry). Processes
// and callbacks of runtimes on the host are not terminated; application
// code models process death by observing Down. Crash is deterministic:
// the teardown runs as an ordinary kernel event, so it is ordered
// against all other events by the usual (time, sequence) rule, which is
// identical in single-kernel and federated execution.
func (h *Host) Crash(at logical.Time) {
	h.net.k.Post(at, crashFn, h)
}

// crashFn is the package-level body of the scheduled crash event.
func crashFn(a any) { a.(*Host).crashNow() }

// Restart schedules the host to come back at simulated time at, with an
// empty port space; rebuild (may be nil) then runs in the same kernel
// event to reconstruct the application stack — typically by creating a
// fresh ara runtime and re-running its offer phase, which re-announces
// services through SOME/IP SD.
func (h *Host) Restart(at logical.Time, rebuild func()) {
	h.net.k.Post(at, des.Call, func() {
		h.down = false
		if rebuild != nil {
			rebuild()
		}
	})
}

// crashNow performs the teardown at the scheduled instant.
func (h *Host) crashNow() {
	if h.down {
		return
	}
	h.down = true
	for i, ep := range h.ports {
		ep.teardown()
		h.ports[i] = nil
	}
	h.ports = h.ports[:0]
}

// Endpoint is a bound (host, port) able to send datagrams and, once a
// receive callback is installed (OnReceive), to receive them.
type Endpoint struct {
	host *Host
	addr Addr
	// onRecv consumes inbound datagrams; while it is nil they drop.
	onRecv func(Datagram)
	closed bool
}

// Bind allocates an endpoint on the given port. Port 0 picks a free
// ephemeral port (≥ 49152). Binding an in-use port, or any port on a
// crashed host, is an error. Port selection is deterministic: it
// depends only on the host's currently bound ports, never on
// randomness.
func (h *Host) Bind(port uint16) (*Endpoint, error) {
	if h.down {
		return nil, fmt.Errorf("simnet: host %s is down", h.name)
	}
	if port == 0 {
		port = 49152
		for h.port(port) != nil {
			if port == 65535 {
				return nil, fmt.Errorf("simnet: host %s out of ephemeral ports", h.name)
			}
			port++
		}
	}
	if h.port(port) != nil {
		return nil, fmt.Errorf("simnet: port %d already bound on host %s", port, h.name)
	}
	ep := &Endpoint{host: h, addr: Addr{Host: h.id, Port: port}}
	h.ports = append(h.ports, ep)
	return ep, nil
}

// port returns the endpoint bound to port, or nil.
func (h *Host) port(port uint16) *Endpoint {
	for _, ep := range h.ports {
		if ep.addr.Port == port {
			return ep
		}
	}
	return nil
}

// MustBind is Bind that panics on error, for wiring code in tests and
// examples where the port plan is static.
func (h *Host) MustBind(port uint16) *Endpoint {
	ep, err := h.Bind(port)
	if err != nil {
		panic(err)
	}
	return ep
}

// Addr returns the endpoint's bound address.
func (e *Endpoint) Addr() Addr { return e.addr }

// Host returns the owning host.
func (e *Endpoint) Host() *Host { return e.host }

// Close unbinds the endpoint and withdraws its topic interests;
// subsequent sends to it are dropped. A stale Close — after the host
// crashed and a restarted stack re-bound the same port — never unbinds
// the successor endpoint.
func (e *Endpoint) Close() {
	e.teardown()
	h := e.host
	if i := slices.Index(h.ports, e); i >= 0 {
		h.ports = slices.Delete(h.ports, i, i+1)
	}
}

// teardown marks the endpoint closed and removes it from every interest
// topic; Close and a host crash share it.
func (e *Endpoint) teardown() {
	e.closed = true
	n := e.host.net
	for tk := range n.topics {
		n.LeaveTopic(tk.group, tk.topic, e)
	}
}

// OnReceive installs the callback that consumes inbound datagrams as
// kernel events (at delivery time). A datagram that arrives while no
// callback is installed is dropped, so install it before traffic
// arrives.
func (e *Endpoint) OnReceive(fn func(Datagram)) { e.onRecv = fn }

// Send routes a datagram to dst. The payload is copied, so callers may
// reuse their buffer. Sending to an unbound destination silently drops
// (UDP semantics), and sending through a closed endpoint — including
// every endpoint of a crashed host — is silently suppressed. Delivery
// happens after the link latency (plus switch delay for inter-host
// traffic and any fault-plan jitter).
func (e *Endpoint) Send(dst Addr, payload []byte) {
	if e.closed || e.host.down {
		return
	}
	n := e.host.net
	buf := make([]byte, len(payload))
	copy(buf, payload)
	n.route(e, Datagram{Src: e.addr, Dst: dst, Payload: buf, SentAt: n.k.Now()}, true)
}

// SendTopic delivers the payload to every endpoint subscribed to the
// (group, topic) pair except the sender, in join order, with one
// payload copy per member. Topic fan-out is exempt from the fault plan
// (see fanout) and a federated Cluster fans it out per partition. Sends through closed endpoints or from crashed
// hosts are suppressed.
func (e *Endpoint) SendTopic(group Addr, topic uint64, payload []byte) {
	if e.closed || e.host.down {
		return
	}
	if !group.IsMulticast() {
		panic("simnet: SendTopic on non-multicast address " + group.String())
	}
	n := e.host.net
	n.fanout(e, n.topics[topicKey{group, topic}], payload)
}

// HasTopicPeers reports whether SendTopic(group, topic, …) through e
// would reach anyone: whether the topic has a member other than e. A
// sender with no audience can skip building its payload and call
// SendTopic with nil, which still counts the send in ControlPlane.
func (e *Endpoint) HasTopicPeers(group Addr, topic uint64) bool {
	for _, m := range e.host.net.topics[topicKey{group, topic}] {
		if m != e {
			return true
		}
	}
	return false
}

// fanout routes one copy of payload to every member except the sender.
// Each member gets its own payload copy so receivers never alias one
// another's buffers (or the sender's). Topic fan-out is exempt from the
// fault plan: it stands in for true Ethernet multicast (the SD control
// plane), which the per-link fault model does not cover — and a
// federated Cluster fans topics out per partition, so
// faulting it would consume link counters mode-dependently and break
// cross-mode byte-equality. SD is disturbed through host lifecycle
// (Crash silences a provider; TTL expiry follows), not through
// packet-level faults.
func (n *Network) fanout(e *Endpoint, members []*Endpoint, payload []byte) {
	n.ctrlSends++
	at := n.k.Now()
	for _, member := range members {
		if member == e {
			continue
		}
		mbuf := make([]byte, len(payload))
		copy(mbuf, payload)
		n.ctrlFanout++
		n.route(e, Datagram{
			Src: e.addr, Dst: member.addr, Payload: mbuf, SentAt: at,
		}, false)
	}
}

// route schedules one datagram for delivery; faulted selects whether
// the fault plan applies (unicast traffic) or not (topic fan-out).
func (n *Network) route(e *Endpoint, dg Datagram, faulted bool) {
	dst := dg.Dst
	payload := dg.Payload
	var lat logical.Duration
	if dst.Host == e.addr.Host {
		lat = loopbackLatency
	} else {
		if n.host(dst.Host) == nil && n.router != nil {
			if n.router(e, dg) {
				return
			}
		}
		var extra logical.Duration
		if faulted {
			var drop bool
			drop, extra = n.faultVerdict(e.addr.Host, dst.Host)
			if drop {
				n.dropped++
				return
			}
		}
		lat = n.model.Latency(len(payload)) + n.switchDelay + extra
	}
	n.k.Post(n.k.Now().Add(lat), deliverFn, n.borrowDeliver(n, dg))
}

func (n *Network) deliver(dg Datagram) {
	h := n.host(dg.Dst.Host)
	if h == nil {
		n.dropped++
		return
	}
	ep := h.port(dg.Dst.Port)
	if ep == nil || ep.closed || ep.onRecv == nil {
		n.dropped++
		return
	}
	n.delivered++
	ep.onRecv(dg)
}
