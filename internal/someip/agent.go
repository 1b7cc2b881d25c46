package someip

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
)

// ServiceKey identifies a service instance.
type ServiceKey struct {
	Service  ServiceID
	Instance InstanceID
}

func (k ServiceKey) String() string {
	return fmt.Sprintf("%04x.%04x", uint16(k.Service), uint16(k.Instance))
}

// RemoteService describes a remote service instance, either discovered
// through SD (simulated substrate) or statically configured (any
// substrate; see ara.Runtime.StaticProxy).
type RemoteService struct {
	Key      ServiceKey
	Major    uint8
	Minor    uint32
	Endpoint Addr // the service's application endpoint
	SDAddr   Addr // the offering agent's SD endpoint (nil when static)
}

// SDGroup is the simulated stand-in for the SOME/IP-SD multicast address
// (224.244.224.245:30490 in real deployments). Agents do not join it as
// a flat group: SD traffic is routed by interest — offers travel on the
// consumer topic of their service key and finds on the provider topic —
// so control-plane fan-out grows with actual interest, not with the
// square of the platform count.
var SDGroup = simnet.Addr{Host: simnet.MulticastBase + 1, Port: SDPort}

// consumerTopic is the simnet topic carrying offers for a service key;
// consumers (Find/Interest) subscribe to it.
func consumerTopic(k ServiceKey) uint64 {
	return uint64(uint16(k.Service))<<16 | uint64(uint16(k.Instance))
}

// providerTopic is the simnet topic carrying finds for a service key;
// providers (Offer) subscribe to it.
func providerTopic(k ServiceKey) uint64 {
	return 1<<32 | consumerTopic(k)
}

// SD timing: the period between repeated offers, and the TTL announced
// in offers, finds and subscriptions (in SD wire seconds).
const (
	cyclicOfferPeriod = logical.Second
	ttlSeconds        = 3
)

// Agent implements the SOME/IP service-discovery state machine for one
// application process: offering local services, discovering remote ones,
// and managing eventgroup subscriptions in both roles.
type Agent struct {
	k       *des.Kernel
	conn    *Conn
	group   simnet.Addr
	session SessionID

	offers map[ServiceKey]*localOffer
	remote map[ServiceKey]*remoteEntry
	watch  map[ServiceKey][]func(RemoteService)
	// interests tracks the service keys whose consumer topic this agent
	// has joined (Interest); offers for other keys never reach it.
	interests map[ServiceKey]bool
}

type localOffer struct {
	key      ServiceKey
	major    uint8
	endpoint simnet.Addr
	subs     map[uint16][]*subscriber // eventgroup -> subscribers
}

type subscriber struct {
	addr   simnet.Addr
	expiry *des.Event
}

type remoteEntry struct {
	svc    RemoteService
	expiry *des.Event
}

// NewAgent creates an SD agent for an application on the given host. It
// binds an SD endpoint; SD topic subscriptions are registered lazily as
// the agent offers services (provider topics) or declares interest in
// them (consumer topics, implicit in Find).
func NewAgent(host *simnet.Host) (*Agent, error) {
	ep, err := host.Bind(0)
	if err != nil {
		return nil, err
	}
	a := &Agent{
		k:         host.Net().Kernel(),
		conn:      NewConn(ep, false),
		group:     SDGroup,
		offers:    map[ServiceKey]*localOffer{},
		remote:    map[ServiceKey]*remoteEntry{},
		watch:     map[ServiceKey][]func(RemoteService){},
		interests: map[ServiceKey]bool{},
	}
	a.conn.OnMessage(a.handle)
	return a, nil
}

// Interest declares this agent's interest in a service key: offers for
// it are delivered to the agent from now on (joining the key's consumer
// topic, idempotently). Find declares interest implicitly; call
// Interest directly to cache offers passively, so that a later Find is
// answered from the cache without issuing a find. Join order — fixed
// by program structure — is the deterministic fan-out order, identical
// in single-kernel and federated execution.
func (a *Agent) Interest(key ServiceKey) {
	if a.interests[key] {
		return
	}
	a.interests[key] = true
	net := a.conn.Endpoint().Host().Net()
	net.JoinTopic(a.group, consumerTopic(key), a.conn.Endpoint())
}

func (a *Agent) nextSession() SessionID {
	a.session++
	if a.session == 0 {
		a.session = 1
	}
	return a.session
}

func (a *Agent) send(dst Addr, entries []Entry) {
	a.conn.Send(dst, NewSDMessage(a.nextSession(), entries))
}

// sendTopic multicasts SD entries on an interest topic, reaching only
// the endpoints subscribed to it. A topic with no member but the sender
// gets no message built: the session still advances and the send still
// counts in the network's ControlPlane, exactly as if one had been
// marshalled and fanned out to nobody.
func (a *Agent) sendTopic(topic uint64, entries []Entry) {
	session := a.nextSession()
	ep := a.conn.Endpoint()
	if !ep.HasTopicPeers(a.group, topic) {
		ep.SendTopic(a.group, topic, nil)
		return
	}
	ep.SendTopic(a.group, topic, NewSDMessage(session, entries).Marshal())
}

// Offer announces a local service instance and keeps re-announcing it
// cyclically for the agent's lifetime. The agent joins the key's
// provider topic (so finds reach it) and announces on the consumer
// topic (so only interested agents receive the offer). Offers carry
// minor version 0.
func (a *Agent) Offer(key ServiceKey, major uint8, endpoint simnet.Addr) {
	off := &localOffer{
		key: key, major: major, endpoint: endpoint,
		subs: map[uint16][]*subscriber{},
	}
	a.offers[key] = off
	net := a.conn.Endpoint().Host().Net()
	net.JoinTopic(a.group, providerTopic(key), a.conn.Endpoint())
	a.announceTopic(off)
	a.scheduleCyclic(off)
}

func (a *Agent) offerEntry(off *localOffer) Entry {
	return Entry{
		Type: OfferService, Service: off.key.Service, Instance: off.key.Instance,
		Major: off.major, TTL: ttlSeconds,
		Options: []Option{{Type: IPv4EndpointOption, Addr: off.endpoint, Proto: UDPProto}},
	}
}

// announce unicasts the current offer to one requester (find replies).
func (a *Agent) announce(off *localOffer, dst Addr) {
	a.send(dst, []Entry{a.offerEntry(off)})
}

// announceTopic multicasts the current offer on the key's consumer
// topic, reaching exactly the agents that declared interest.
func (a *Agent) announceTopic(off *localOffer) {
	a.sendTopic(consumerTopic(off.key), []Entry{a.offerEntry(off)})
}

func (a *Agent) scheduleCyclic(off *localOffer) {
	a.k.AfterDaemon(cyclicOfferPeriod, func() {
		a.announceTopic(off)
		a.scheduleCyclic(off)
	})
}

// Find starts discovery for a service instance, declaring interest in
// it (see Interest). The callback fires once (as a kernel event) when
// the service is known — immediately if already cached. It does not
// fire again on re-discovery after expiry; a caller that wants the
// re-offer calls Find again. The find itself travels on the key's
// provider topic, reaching only agents that offer the service.
func (a *Agent) Find(key ServiceKey, cb func(RemoteService)) {
	a.Interest(key)
	if r, ok := a.remote[key]; ok {
		svc := r.svc
		a.k.After(0, func() { cb(svc) })
		return
	}
	a.watch[key] = append(a.watch[key], cb)
	a.sendTopic(providerTopic(key), []Entry{{
		Type: FindService, Service: key.Service, Instance: key.Instance,
		Major: 0xff, Minor: 0xffffffff, TTL: ttlSeconds,
	}})
}

// Subscribe requests an eventgroup subscription from the (already
// discovered) remote service, delivering notifications to notifyEndpoint;
// it does nothing for a service not discovered. The provider's ack or
// NACK is not awaited: an agent ignores the acks it receives. The
// subscription is renewed cyclically while the service stays
// discovered.
func (a *Agent) Subscribe(key ServiceKey, eventgroup uint16, notifyEndpoint simnet.Addr) {
	r, ok := a.remote[key]
	if !ok {
		return
	}
	a.send(r.svc.SDAddr, []Entry{{
		Type: SubscribeEventgroup, Service: key.Service, Instance: key.Instance,
		Major: r.svc.Major, TTL: ttlSeconds, Eventgroup: eventgroup,
		Options: []Option{{Type: IPv4EndpointOption, Addr: notifyEndpoint, Proto: UDPProto}},
	}})
	// Renew at 2/3 of the TTL while the service stays discovered.
	a.k.AfterDaemon(ttlSeconds*logical.Second*2/3, func() {
		if _, still := a.remote[key]; still {
			a.Subscribe(key, eventgroup, notifyEndpoint)
		}
	})
}

// Subscribers returns the current subscriber endpoints for a local
// service's eventgroup, in subscription order.
func (a *Agent) Subscribers(key ServiceKey, eventgroup uint16) []simnet.Addr {
	off, ok := a.offers[key]
	if !ok {
		return nil
	}
	subs := off.subs[eventgroup]
	addrs := make([]simnet.Addr, len(subs))
	for i, s := range subs {
		addrs[i] = s.addr
	}
	return addrs
}

func (a *Agent) handle(src Addr, m *Message) {
	if !m.IsSD() {
		return
	}
	entries, err := UnmarshalSD(m.Payload)
	if err != nil {
		return
	}
	for _, e := range entries {
		switch e.Type {
		case FindService:
			a.handleFind(src, e)
		case OfferService:
			a.handleOffer(src, e)
		case SubscribeEventgroup:
			a.handleSubscribe(src, e)
		}
	}
}

func (a *Agent) handleFind(src Addr, e Entry) {
	key := ServiceKey{e.Service, e.Instance}
	if off, ok := a.offers[key]; ok {
		// Unicast offer straight back to the requester.
		a.announce(off, src)
	}
}

func (a *Agent) handleOffer(src Addr, e Entry) {
	key := ServiceKey{e.Service, e.Instance}
	if e.TTL == 0 { // stop-offer
		if r, ok := a.remote[key]; ok {
			if r.expiry != nil {
				r.expiry.Cancel()
			}
			delete(a.remote, key)
		}
		return
	}
	if len(e.Options) == 0 || e.Options[0].Type != IPv4EndpointOption {
		return
	}
	svc := RemoteService{
		Key: key, Major: e.Major, Minor: e.Minor,
		Endpoint: e.Options[0].Addr, SDAddr: src,
	}
	if r, ok := a.remote[key]; ok && r.expiry != nil {
		r.expiry.Cancel()
	}
	entry := &remoteEntry{svc: svc}
	ttl := logical.Duration(e.TTL) * logical.Second
	entry.expiry = a.k.AfterDaemon(ttl, func() { delete(a.remote, key) })
	a.remote[key] = entry
	if ws := a.watch[key]; len(ws) > 0 {
		delete(a.watch, key)
		for _, w := range ws {
			w(svc)
		}
	}
}

func (a *Agent) handleSubscribe(src Addr, e Entry) {
	key := ServiceKey{e.Service, e.Instance}
	off, ok := a.offers[key]
	if len(e.Options) == 0 || e.Options[0].Type != IPv4EndpointOption {
		return
	}
	subAddr := e.Options[0].Addr
	if !ok {
		// NACK: ack entry with TTL 0.
		a.send(src, []Entry{{
			Type: SubscribeEventgroupAck, Service: e.Service, Instance: e.Instance,
			Major: e.Major, TTL: 0, Eventgroup: e.Eventgroup,
		}})
		return
	}
	if e.TTL == 0 { // unsubscribe
		subs := off.subs[e.Eventgroup]
		for i, s := range subs {
			if s.addr == subAddr {
				if s.expiry != nil {
					s.expiry.Cancel()
				}
				off.subs[e.Eventgroup] = append(subs[:i:i], subs[i+1:]...)
				break
			}
		}
		return
	}
	ttl := logical.Duration(e.TTL) * logical.Second
	found := false
	for _, s := range off.subs[e.Eventgroup] {
		if s.addr == subAddr {
			if s.expiry != nil {
				s.expiry.Cancel()
			}
			s.expiry = a.expireSub(off, e.Eventgroup, subAddr, ttl)
			found = true
			break
		}
	}
	if !found {
		s := &subscriber{addr: subAddr}
		s.expiry = a.expireSub(off, e.Eventgroup, subAddr, ttl)
		off.subs[e.Eventgroup] = append(off.subs[e.Eventgroup], s)
	}
	a.send(src, []Entry{{
		Type: SubscribeEventgroupAck, Service: e.Service, Instance: e.Instance,
		Major: e.Major, TTL: e.TTL, Eventgroup: e.Eventgroup,
	}})
}

func (a *Agent) expireSub(off *localOffer, eventgroup uint16, addr simnet.Addr, ttl logical.Duration) *des.Event {
	return a.k.AfterDaemon(ttl, func() {
		subs := off.subs[eventgroup]
		for i, s := range subs {
			if s.addr == addr {
				off.subs[eventgroup] = append(subs[:i:i], subs[i+1:]...)
				return
			}
		}
	})
}
