package core

import (
	"fmt"

	"repro/internal/ara"
	"repro/internal/logical"
	"repro/internal/reactor"
	"repro/internal/someip"
)

// TransactorConfig carries the per-transactor timing parameters.
type TransactorConfig struct {
	// Deadline is D: the bound on how far physical time may lag behind
	// the tag when the sending reaction executes. The tag transmitted on
	// the wire is advanced by D.
	Deadline logical.Duration
	// Link carries L and E for the receive direction.
	Link LinkConfig
}

// TransactorStats counts observable conditions at one transactor. In the
// reactor semantics every violated assumption becomes a counted,
// observable error rather than silent corruption.
type TransactorStats struct {
	// Forwarded counts payloads successfully moved between the reactor
	// network and the service interface.
	Forwarded uint64
	// DeadlineViolations counts sending reactions that missed D.
	DeadlineViolations uint64
	// SafeToProcessViolations counts received messages whose tag + L + E
	// was already in the logical past (a violated latency/clock bound).
	SafeToProcessViolations uint64
	// UntaggedDropped counts messages rejected for arriving without a
	// tag (from unmodified, non-DEAR peers): composing them silently
	// would reintroduce nondeterminism.
	UntaggedDropped uint64
	// RemoteErrors counts failed method invocations (error responses).
	RemoteErrors uint64
}

// resolveTag returns an incoming message's tag, or counts the message
// in UntaggedDropped and reports false when it carries none.
func resolveTag(stats *TransactorStats, tag *logical.Tag) (logical.Tag, bool) {
	if tag != nil {
		return *tag, true
	}
	stats.UntaggedDropped++
	return logical.Tag{}, false
}

// ClientMethodTransactor interacts with a method of a service interface
// in the client role. An event on Request invokes the remote method with
// the event's payload as arguments; the response arrives as an event on
// Response once it is safe to process.
type ClientMethodTransactor struct {
	// Request is the transactor's input: payload to send as arguments.
	Request *reactor.Port[[]byte]
	// Response is the transactor's output: the method result.
	Response *reactor.Port[[]byte]

	swc   *SWC
	stats TransactorStats

	proxy *ara.Proxy
	resp  *reactor.Action[[]byte]
}

// NewClientMethodTransactor creates the transactor as a reactor inside
// the SWC's environment. Service discovery starts immediately; requests
// arriving before the service is bound count as remote errors.
func NewClientMethodTransactor(env *reactor.Environment, swc *SWC, iface *ara.ServiceInterface, instance someip.InstanceID, method string, cfg TransactorConfig) (*ClientMethodTransactor, error) {
	spec, ok := iface.Method(method)
	if !ok {
		return nil, fmt.Errorf("core: %s has no method %q", iface.Name, method)
	}
	return newClientMethodTransactor(env, swc, iface, instance, spec, cfg), nil
}

func newClientMethodTransactor(env *reactor.Environment, swc *SWC, iface *ara.ServiceInterface, instance someip.InstanceID, spec ara.MethodSpec, cfg TransactorConfig) *ClientMethodTransactor {
	t := &ClientMethodTransactor{swc: swc}
	// The up (request) and down (response) paths live in separate
	// reactors: they share no state, and a single reactor would order
	// them by priority, falsely closing a causality cycle for
	// response-driven request loops.
	r := env.NewReactor(fmt.Sprintf("cmt.%s.%s.up", iface.Name, spec.Name))
	rDown := env.NewReactor(fmt.Sprintf("cmt.%s.%s.down", iface.Name, spec.Name))
	t.Request = reactor.NewInputPort[[]byte](r, "request")
	t.Response = reactor.NewOutputPort[[]byte](rDown, "response")
	t.resp = reactor.NewPhysicalAction[[]byte](rDown, "resp", 0)

	swc.runtime.FindService(iface, instance, func(px *ara.Proxy) { t.proxy = px })

	send := r.AddReaction("send").Triggers(t.Request)
	if cfg.Deadline > 0 {
		send.WithDeadline(cfg.Deadline, func(c *reactor.Ctx) {
			t.stats.DeadlineViolations++
		})
	}
	send.Do(func(c *reactor.Ctx) {
		payload, _ := t.Request.Get(c)
		if t.proxy == nil {
			t.stats.RemoteErrors++
			return
		}
		// (2) stage tc+Dc in the timestamp bypass, (3) invoke the call on
		// the proxy; the modified binding (4,5) attaches the tag.
		wireTag := c.Tag().Delay(cfg.Deadline)
		bp := t.swc.binding.Bypass()
		bp.Stage(iface.ID, spec.ID, wireTag)
		fut := t.proxy.CallID(spec.ID, payload)
		bp.Clear(iface.ID, spec.ID)
		// (19,20) the response interrupt: retrieve ts+Ds and schedule an
		// action at ts+Ds+L+E.
		fut.Then(func(res ara.Result) {
			if res.Err != nil {
				t.stats.RemoteErrors++
				return
			}
			tag, ok := resolveTag(&t.stats, res.Tag)
			if !ok {
				return
			}
			safe := tag.Delay(cfg.Link.SafeToProcessOffset())
			if _, accepted := t.resp.ScheduleAt(res.Payload, safe); !accepted {
				t.stats.SafeToProcessViolations++
			}
		})
	})

	rDown.AddReaction("deliver").Triggers(t.resp).Effects(t.Response).Do(func(c *reactor.Ctx) {
		payload, _ := t.resp.Get(c)
		t.stats.Forwarded++
		t.Response.Set(c, payload)
	})
	return t
}

// Stats returns the transactor's error counters.
func (t *ClientMethodTransactor) Stats() TransactorStats { return t.stats }

// serverPending tracks one outstanding invocation at the server side.
type serverPending struct {
	future *ara.Future
	// tagged records whether the request carried a wire tag; responses to
	// untagged (legacy) callers are sent untagged so that standard
	// bindings are not confronted with trailer bytes.
	tagged bool
}

// ServerMethodTransactor interacts with a method of a service interface
// in the server role: incoming invocations appear as events on Request
// (tagged t+D+L+E per safe-to-process); the server logic answers by
// producing an event on Response, which resolves the invocation's future
// and sends the response with tag ts+Ds.
//
// Correlation is FIFO: the n-th Response event answers the n-th Request
// event, matching a server logic that responds to every request in order
// (logically instantaneous pipelines preserve this by construction).
type ServerMethodTransactor struct {
	// Request is the transactor's output into the server logic.
	Request *reactor.Port[[]byte]
	// Response is the transactor's input from the server logic.
	Response *reactor.Port[[]byte]

	stats TransactorStats

	req     *reactor.Action[[]byte]
	pending []serverPending
}

// NewServerMethodTransactor creates the transactor and installs the
// asynchronous method handler on the skeleton.
func NewServerMethodTransactor(env *reactor.Environment, swc *SWC, sk *ara.Skeleton, method string, cfg TransactorConfig) (*ServerMethodTransactor, error) {
	iface := sk.Interface()
	spec, ok := iface.Method(method)
	if !ok {
		return nil, fmt.Errorf("core: %s has no method %q", iface.Name, method)
	}
	return newServerMethodTransactor(env, swc, sk, spec, cfg), nil
}

func newServerMethodTransactor(env *reactor.Environment, swc *SWC, sk *ara.Skeleton, spec ara.MethodSpec, cfg TransactorConfig) *ServerMethodTransactor {
	iface := sk.Interface()
	t := &ServerMethodTransactor{}
	// Up (invocation in) and down (response out) paths in separate
	// reactors — see newClientMethodTransactor.
	r := env.NewReactor(fmt.Sprintf("smt.%s.%s.up", iface.Name, spec.Name))
	rDown := env.NewReactor(fmt.Sprintf("smt.%s.%s.down", iface.Name, spec.Name))
	t.Request = reactor.NewOutputPort[[]byte](r, "request")
	t.Response = reactor.NewInputPort[[]byte](rDown, "response")
	t.req = reactor.NewPhysicalAction[[]byte](r, "req", 0)

	k := swc.runtime.Kernel()
	// (8,9) the skeleton invocation is the transactor's interrupt; (10)
	// the tag comes from the modified binding; the action is scheduled at
	// tc+Dc+L+E.
	sk.HandleIDAsync(spec.ID, func(c *ara.Ctx, args []byte) *ara.Future {
		wireTag := c.Message().Tag
		tag, ok := resolveTag(&t.stats, wireTag)
		if !ok {
			return ara.ResolvedFuture(k, ara.Result{Err: &ara.RemoteError{Code: someip.EMissingTag}})
		}
		fut := ara.NewFuture(k)
		t.pending = append(t.pending, serverPending{future: fut, tagged: wireTag != nil})
		safe := tag.Delay(cfg.Link.SafeToProcessOffset())
		if _, accepted := t.req.ScheduleAt(args, safe); !accepted {
			t.stats.SafeToProcessViolations++
		}
		return fut
	})

	// (11) forward the invocation into the server logic.
	r.AddReaction("deliver").Triggers(t.req).Effects(t.Request).Do(func(c *reactor.Ctx) {
		args, _ := t.req.Get(c)
		t.stats.Forwarded++
		t.Request.Set(c, args)
	})

	// (12..14) the response from the server logic resolves the future
	// with tag ts+Ds; the binding (15,16) attaches it to the wire message.
	respond := rDown.AddReaction("respond").Triggers(t.Response)
	if cfg.Deadline > 0 {
		respond.WithDeadline(cfg.Deadline, func(c *reactor.Ctx) {
			t.stats.DeadlineViolations++
			t.resolveNext(ara.Result{Err: &ara.RemoteError{Code: someip.ETimeout}})
		})
	}
	respond.Do(func(c *reactor.Ctx) {
		payload, _ := t.Response.Get(c)
		wireTag := c.Tag().Delay(cfg.Deadline)
		t.resolveNext(ara.Result{Payload: payload, Tag: &wireTag})
	})
	return t
}

func (t *ServerMethodTransactor) resolveNext(r ara.Result) {
	if len(t.pending) == 0 {
		t.stats.RemoteErrors++
		return
	}
	p := t.pending[0]
	t.pending = t.pending[1:]
	if !p.tagged {
		r.Tag = nil
	}
	p.future.Resolve(r)
}

// Stats returns the transactor's error counters.
func (t *ServerMethodTransactor) Stats() TransactorStats { return t.stats }

// ClientEventTransactor interacts with an AP event in the client role:
// each received notification becomes an event on Out once safe to
// process.
type ClientEventTransactor struct {
	// Out is the transactor's output port carrying notification payloads.
	Out *reactor.Port[[]byte]

	stats TransactorStats

	act *reactor.Action[[]byte]
}

// NewClientEventTransactor creates the transactor and starts discovery +
// subscription for the event.
func NewClientEventTransactor(env *reactor.Environment, swc *SWC, iface *ara.ServiceInterface, instance someip.InstanceID, event string, cfg TransactorConfig) (*ClientEventTransactor, error) {
	spec, ok := iface.Event(event)
	if !ok {
		return nil, fmt.Errorf("core: %s has no event %q", iface.Name, event)
	}
	return newClientEventTransactor(env, swc, iface, instance, spec, cfg), nil
}

func newClientEventTransactor(env *reactor.Environment, swc *SWC, iface *ara.ServiceInterface, instance someip.InstanceID, spec ara.EventSpec, cfg TransactorConfig) *ClientEventTransactor {
	t := &ClientEventTransactor{}
	r := env.NewReactor(fmt.Sprintf("cet.%s.%s", iface.Name, spec.Name))
	t.Out = reactor.NewOutputPort[[]byte](r, "out")
	t.act = reactor.NewPhysicalAction[[]byte](r, "notif", 0)

	swc.runtime.FindService(iface, instance, func(px *ara.Proxy) {
		err := px.SubscribeID(spec.ID, spec.Eventgroup, func(c *ara.Ctx, payload []byte) {
			tag, ok := resolveTag(&t.stats, c.Message().Tag)
			if !ok {
				return
			}
			safe := tag.Delay(cfg.Link.SafeToProcessOffset())
			if _, accepted := t.act.ScheduleAt(payload, safe); !accepted {
				t.stats.SafeToProcessViolations++
			}
		})
		if err != nil {
			t.stats.RemoteErrors++
		}
	})

	r.AddReaction("deliver").Triggers(t.act).Effects(t.Out).Do(func(c *reactor.Ctx) {
		payload, _ := t.act.Get(c)
		t.stats.Forwarded++
		t.Out.Set(c, payload)
	})
	return t
}

// Stats returns the transactor's error counters.
func (t *ClientEventTransactor) Stats() TransactorStats { return t.stats }

// ServerEventTransactor interacts with an AP event in the server role:
// events on In are published as notifications tagged t+D.
type ServerEventTransactor struct {
	// In is the transactor's input port carrying payloads to publish.
	In *reactor.Port[[]byte]

	swc   *SWC
	stats TransactorStats
}

// NewServerEventTransactor creates the transactor on the skeleton's
// event.
func NewServerEventTransactor(env *reactor.Environment, swc *SWC, sk *ara.Skeleton, event string, cfg TransactorConfig) (*ServerEventTransactor, error) {
	iface := sk.Interface()
	spec, ok := iface.Event(event)
	if !ok {
		return nil, fmt.Errorf("core: %s has no event %q", iface.Name, event)
	}
	return newServerEventTransactor(env, swc, sk, spec, cfg), nil
}

func newServerEventTransactor(env *reactor.Environment, swc *SWC, sk *ara.Skeleton, spec ara.EventSpec, cfg TransactorConfig) *ServerEventTransactor {
	iface := sk.Interface()
	t := &ServerEventTransactor{swc: swc}
	r := env.NewReactor(fmt.Sprintf("set.%s.%s", iface.Name, spec.Name))
	t.In = reactor.NewInputPort[[]byte](r, "in")

	send := r.AddReaction("send").Triggers(t.In)
	if cfg.Deadline > 0 {
		send.WithDeadline(cfg.Deadline, func(c *reactor.Ctx) {
			t.stats.DeadlineViolations++
		})
	}
	send.Do(func(c *reactor.Ctx) {
		payload, _ := t.In.Get(c)
		wireTag := c.Tag().Delay(cfg.Deadline)
		bp := t.swc.binding.Bypass()
		bp.Stage(iface.ID, spec.ID, wireTag)
		sk.NotifyID(spec.ID, spec.Eventgroup, payload)
		bp.Clear(iface.ID, spec.ID)
		t.stats.Forwarded++
	})
	return t
}

// Stats returns the transactor's error counters.
func (t *ServerEventTransactor) Stats() TransactorStats { return t.stats }
