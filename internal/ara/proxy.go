package ara

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/someip"
)

// Proxy is the client-side access object for a remote service instance,
// generated in real ara::com from the service description. Method calls
// are non-blocking and return futures; events are consumed through
// subscriptions.
type Proxy struct {
	rt     *Runtime
	iface  *ServiceInterface
	key    someip.ServiceKey
	remote someip.RemoteService
}

// FindService starts service discovery and invokes cb (as a kernel event)
// with a ready proxy once the instance is found. It panics on runtimes
// without an SD agent (UDP runtimes); configure those statically with
// StaticProxy.
func (rt *Runtime) FindService(si *ServiceInterface, instance someip.InstanceID, cb func(*Proxy)) {
	if rt.sd == nil {
		panic("ara: runtime " + rt.name + " has no service discovery; use StaticProxy")
	}
	key := someip.ServiceKey{Service: si.ID, Instance: instance}
	rt.sd.Find(key, func(svc someip.RemoteService) {
		cb(&Proxy{rt: rt, iface: si, key: key, remote: svc})
	})
}

// StaticProxy returns a proxy bound to a statically configured remote
// endpoint, bypassing service discovery — the deployment-time static
// configuration path of real AP stacks, and the only discovery mode on
// substrates without an SD agent (UDP runtimes). The endpoint must be an
// address of the runtime's own substrate.
func (rt *Runtime) StaticProxy(si *ServiceInterface, instance someip.InstanceID, endpoint someip.Addr) *Proxy {
	key := someip.ServiceKey{Service: si.ID, Instance: instance}
	return &Proxy{rt: rt, iface: si, key: key, remote: someip.RemoteService{
		Key: key, Major: si.Major, Endpoint: endpoint,
	}}
}

// FindServiceSync blocks the calling process until the service is found
// or the timeout expires.
func (rt *Runtime) FindServiceSync(p *des.Process, si *ServiceInterface, instance someip.InstanceID, timeout logical.Duration) (*Proxy, error) {
	var proxy *Proxy
	rt.FindService(si, instance, func(px *Proxy) {
		proxy = px
		p.Unpark()
	})
	deadline := p.Now().Add(timeout)
	for proxy == nil {
		if p.Now() >= deadline {
			return nil, fmt.Errorf("%w: %s instance %d", ErrServiceNotAvailable, si.Name, instance)
		}
		ev := rt.k.At(deadline, func() { p.Unpark() })
		p.Park()
		ev.Cancel()
	}
	return proxy, nil
}

// Call invokes a method by name, non-blocking, returning a future.
func (px *Proxy) Call(method string, args []byte) *Future {
	spec, ok := px.iface.Method(method)
	if !ok {
		return ResolvedFuture(px.rt.k, Result{Err: fmt.Errorf("ara: %s has no method %q", px.iface.Name, method)})
	}
	return px.CallID(spec.ID, args)
}

// CallID invokes a method by wire ID.
func (px *Proxy) CallID(method someip.MethodID, args []byte) *Future {
	session := px.rt.nextSession()
	px.rt.out = someip.Message{
		Service:          px.key.Service,
		Method:           method,
		Client:           px.rt.clientID,
		Session:          session,
		InterfaceVersion: px.iface.Major,
		Type:             someip.TypeRequest,
		Code:             someip.EOK,
		Payload:          args,
	}
	m := &px.rt.out
	fut := NewFuture(px.rt.k)
	px.rt.pending[session] = fut
	if err := px.rt.send(px.remote.Endpoint, m); err != nil {
		// Fail fast on local send errors (wrong-substrate address, closed
		// endpoint) instead of leaving the caller to its timeout.
		delete(px.rt.pending, session)
		fut.Resolve(Result{Err: fmt.Errorf("%w: %v", ErrServiceNotAvailable, err)})
	}
	return fut
}

// Subscribe registers a handler for an event by name. The handler runs on
// the runtime's worker pool for every received notification.
func (px *Proxy) Subscribe(event string, handler func(*Ctx, []byte)) error {
	spec, ok := px.iface.Event(event)
	if !ok {
		return fmt.Errorf("ara: %s has no event %q", px.iface.Name, event)
	}
	return px.SubscribeID(spec.ID, spec.Eventgroup, handler)
}

// SubscribeID registers a handler for an event by wire ID and eventgroup.
func (px *Proxy) SubscribeID(id someip.MethodID, eventgroup uint16, handler func(*Ctx, []byte)) error {
	if !id.IsEvent() {
		return fmt.Errorf("ara: id %#x is not an event", uint16(id))
	}
	if px.rt.sd == nil {
		return fmt.Errorf("ara: runtime %s has no service discovery; eventgroup subscriptions need an SD substrate", px.rt.name)
	}
	k := eventKey{px.key.Service, id}
	px.rt.eventSubs[k] = append(px.rt.eventSubs[k], handler)
	px.rt.sd.Subscribe(px.key, eventgroup, px.rt.simAddr())
	return nil
}
