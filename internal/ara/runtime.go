package ara

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
	"repro/internal/someip"
)

// BindingHook intercepts outgoing messages at the SOME/IP binding
// boundary. The DEAR framework installs a hook to implement the paper's
// "modified SOME/IP binding": Outgoing pulls a tag from the timestamp
// bypass and attaches it to the message. Inbound, the tagged binding
// itself decodes the tag trailer onto the message, so no hook runs. m is
// valid only during Outgoing: it is the runtime's scratch, which the
// next request, reply or notification overwrites. A hook that keeps any
// field of m, or its Tag, copies it.
type BindingHook interface {
	Outgoing(m *someip.Message)
}

// Config configures a Runtime (one per software component process).
type Config struct {
	// Name identifies the SWC process (used for process and RNG naming).
	Name string
	// Port is the application endpoint port (0 = ephemeral).
	Port uint16
	// Exec configures the worker-thread pool.
	Exec ExecConfig
	// Tagged selects the modified (tag-aware) SOME/IP binding.
	Tagged bool
	// WrapEndpoint, when set, wraps the runtime's transport endpoint at
	// construction time — the seam trace recording installs itself at
	// (e.g. trace.NewRecordingEndpoint). The wrapper sees every message
	// the binding sends and receives, on any substrate, and always on
	// the runtime's kernel goroutine.
	WrapEndpoint func(someip.Endpoint) someip.Endpoint
}

// Runtime is the per-process ara::com runtime: it owns the application
// endpoint, the SD agent, the worker-thread executor and the
// request/response bookkeeping.
//
// A Runtime runs over a pluggable transport (someip.Endpoint). Two
// substrates exist today: the deterministic simulated network (via
// NewRuntime, the default for experiments) and real UDP sockets driven
// by a physical-clock kernel driver (via NewUDPRuntime).
type Runtime struct {
	host  *simnet.Host // nil for runtimes on real sockets
	k     *des.Kernel
	clock *des.LocalClock
	name  string

	conn     someip.Endpoint
	sd       *someip.Agent // nil without an SD substrate (UDP runtimes)
	exec     *Executor
	clientID someip.ClientID
	session  someip.SessionID
	pending  map[someip.SessionID]*Future

	skeletons map[someip.ServiceID]*Skeleton
	eventSubs map[eventKey][]func(*Ctx, []byte)

	hook BindingHook

	// free holds served requests whose handler and reply are done, for
	// newServe to reuse. Only the kernel goroutine touches it.
	free []*serve

	// out is the scratch every outgoing request, reply and notification
	// is built in: the binding hook and the endpoint read a Message only
	// during send (see someip.Endpoint), so one per runtime suffices.
	out someip.Message
}

type eventKey struct {
	service someip.ServiceID
	event   someip.MethodID
}

// NewRuntime creates a runtime on a simulated host: the endpoint is a
// simnet binding, service discovery runs over the simulated SD multicast
// group, and execution is driven deterministically by the host's kernel.
func NewRuntime(host *simnet.Host, cfg Config) (*Runtime, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("ara: runtime needs a name")
	}
	k := host.Net().Kernel()
	ep, err := host.Bind(cfg.Port)
	if err != nil {
		return nil, err
	}
	sd, err := someip.NewAgent(host)
	if err != nil {
		return nil, err
	}
	clientID := someip.ClientID(host.ID()<<8 | ep.Addr().Port&0xff)
	rt := newRuntime(k, host.Clock(), cfg, someip.NewConn(ep, cfg.Tagged), clientID)
	rt.host = host
	rt.sd = sd
	rt.conn.OnMessage(rt.handle)
	return rt, nil
}

// NewUDPRuntime creates a runtime whose endpoint is a real UDP socket
// (addr uses net.ListenUDP semantics, e.g. "127.0.0.1:0"). The runtime's
// kernel is driven by the real-time driver: socket receptions are
// injected as kernel events before any handler sees them, so handlers,
// Config.WrapEndpoint wrappers, futures and the executor run on the
// driver's goroutine exactly as they do under simulation — except that
// time is now physical.
//
// UDP runtimes have no service-discovery agent; peers are configured
// statically with StaticProxy. Close the runtime when done.
func NewUDPRuntime(drv *des.RealTime, addr string, cfg Config) (*Runtime, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("ara: runtime needs a name")
	}
	conn, err := someip.ListenUDP(addr, cfg.Tagged)
	if err != nil {
		return nil, err
	}
	k := drv.Kernel()
	// The physical clock: kernel time already tracks the wall clock under
	// the real-time driver, so the local clock is the identity mapping.
	rt := newRuntime(k, k.NewLocalClock(des.ClockConfig{}, nil), cfg, kernelUDPConn{conn, drv}, someip.ClientID(conn.Addr().Port))
	rt.conn.OnMessage(rt.handle)
	return rt, nil
}

// kernelUDPConn is a UDPConn that delivers on the kernel goroutine: the
// socket reader hands each message over through the driver's injection
// queue. UDPConn's messages are freshly decoded, so m may outlive the
// reader's callback.
type kernelUDPConn struct {
	*someip.UDPConn
	drv *des.RealTime
}

// OnMessage installs fn to run as an injected kernel event per message.
func (c kernelUDPConn) OnMessage(fn func(src someip.Addr, m *someip.Message)) {
	c.UDPConn.OnMessage(func(src someip.Addr, m *someip.Message) {
		c.drv.Inject(func() { fn(src, m) })
	})
}

// NewEndpointRuntime creates a runtime over an arbitrary pre-built
// transport endpoint driven directly by the given kernel: the
// endpoint must deliver inbound messages in the kernel's execution
// context (as simulated transports do). It is the replay seam — a
// trace.Replayer is an Endpoint whose "network" is a recorded trace —
// and is useful for any custom substrate that speaks someip.Endpoint.
// Like UDP runtimes it has no service-discovery agent; peers are
// configured statically.
func NewEndpointRuntime(k *des.Kernel, ep someip.Endpoint, cfg Config) (*Runtime, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("ara: runtime needs a name")
	}
	rt := newRuntime(k, k.NewLocalClock(des.ClockConfig{}, nil), cfg, ep, 1)
	rt.conn.OnMessage(rt.handle)
	return rt, nil
}

func newRuntime(k *des.Kernel, clock *des.LocalClock, cfg Config, conn someip.Endpoint, clientID someip.ClientID) *Runtime {
	if cfg.WrapEndpoint != nil {
		conn = cfg.WrapEndpoint(conn)
	}
	return &Runtime{
		k:         k,
		clock:     clock,
		name:      cfg.Name,
		conn:      conn,
		exec:      NewExecutor(k, k.Rand("ara."+cfg.Name).Stream("exec"), cfg.Exec),
		clientID:  clientID,
		pending:   map[someip.SessionID]*Future{},
		skeletons: map[someip.ServiceID]*Skeleton{},
		eventSubs: map[eventKey][]func(*Ctx, []byte){},
	}
}

// Host returns the simulated platform the runtime executes on, or nil
// for runtimes bound to real sockets.
func (rt *Runtime) Host() *simnet.Host { return rt.host }

// Kernel returns the kernel that schedules the runtime's execution.
func (rt *Runtime) Kernel() *des.Kernel { return rt.k }

// Clock returns the platform's local clock.
func (rt *Runtime) Clock() *des.LocalClock { return rt.clock }

// Addr returns the application endpoint address.
func (rt *Runtime) Addr() someip.Addr { return rt.conn.LocalAddr() }

// simAddr returns the endpoint address in simulated form. Valid only on
// runtimes created with NewRuntime (rt.sd != nil implies this).
func (rt *Runtime) simAddr() simnet.Addr { return rt.conn.LocalAddr().(simnet.Addr) }

// Close releases the runtime's endpoint. Pending requests never resolve;
// call it only when tearing the process down (primarily for UDP
// runtimes, whose sockets outlive any single kernel run).
func (rt *Runtime) Close() error { return rt.conn.Close() }

// SetBindingHook installs the DEAR binding hook (see BindingHook).
func (rt *Runtime) SetBindingHook(h BindingHook) { rt.hook = h }

// send transmits a message through the (possibly hooked) binding.
// Transmission is best-effort, mirroring the AP stack's lack of a
// delivery guarantee; the returned error reports local failures only
// (closed endpoint, wrong-substrate address, failed socket write) — most
// callers drop it, but the proxy uses it to fail calls fast.
func (rt *Runtime) send(dst someip.Addr, m *someip.Message) error {
	if rt.hook != nil {
		rt.hook.Outgoing(m)
	}
	return rt.conn.Send(dst, m)
}

func (rt *Runtime) nextSession() someip.SessionID {
	rt.session++
	if rt.session == 0 {
		rt.session = 1
	}
	return rt.session
}

// handle is the runtime's inbound path. m is valid only during the call
// (see someip.Endpoint.OnMessage): whatever outlives it — a served
// request, a notification, a response tag — is copied out here.
func (rt *Runtime) handle(src someip.Addr, m *someip.Message) {
	switch m.Type {
	case someip.TypeRequest, someip.TypeRequestNoReturn:
		rt.handleRequest(src, m)
	case someip.TypeResponse, someip.TypeError:
		rt.handleResponse(m)
	case someip.TypeNotification:
		rt.handleNotification(m)
	}
}

// serve is one inbound message being served: the request (or
// notification) copied out of the endpoint's scratch, its tag, the
// handler, and the sync handler's result. It is at once the executor
// task and the argument of the reply event. Once its handler has
// returned and its reply (if any) is sent, it goes back to the
// runtime's free list, so a warm runtime serves without allocating one.
type serve struct {
	rt  *Runtime
	src someip.Addr
	msg someip.Message
	tag logical.Tag

	// Exactly one handler is set: the method's, or event for a
	// notification.
	method
	event func(*Ctx, []byte)

	res Result // the sync handler's outcome, sent by replyFn
}

// newServe copies m (and its tag) into a serve from the free list, or
// a fresh one when the list is empty.
func (rt *Runtime) newServe(src someip.Addr, m *someip.Message) *serve {
	var s *serve
	if n := len(rt.free); n > 0 {
		s = rt.free[n-1]
		rt.free[n-1] = nil
		rt.free = rt.free[:n-1]
	} else {
		s = new(serve)
	}
	*s = serve{rt: rt, src: src, msg: *m}
	if m.Tag != nil {
		s.tag = *m.Tag
		s.msg.Tag = &s.tag
	}
	return s
}

// release zeroes s, dropping its payload and handler, and returns it to
// the runtime's free list. Nothing may touch s afterwards: the Ctx and
// its Message are valid only while the handler runs, and handler args
// alias the datagram, not s.
func (s *serve) release() {
	rt := s.rt
	*s = serve{}
	rt.free = append(rt.free, s)
}

// run executes the handler on a worker thread. A sync handler's reply is
// one event at the current instant carrying s; an async handler's is
// sent when its future resolves. s is released once its handler has
// returned and its reply, if any, is sent.
func (s *serve) run(c *Ctx) {
	c.rt, c.msg = s.rt, &s.msg
	args := s.msg.Payload
	switch {
	case s.event != nil:
		s.event(c, args)
	case s.sync != nil:
		payload, err := s.sync(c, args)
		if s.msg.Type != someip.TypeRequestNoReturn {
			s.res = Result{Payload: payload, Err: err}
			s.rt.k.Post(s.rt.k.Now(), replyFn, s)
			return
		}
	default:
		fut := s.async(c, args)
		if s.msg.Type != someip.TypeRequestNoReturn {
			fut.Then(func(r Result) {
				s.res = r
				replyFn(s)
			})
			return
		}
	}
	// A notification or fire&forget request has no reply to wait for.
	s.release()
}

// replyFn sends the response to a served request and releases it.
func replyFn(a any) {
	s := a.(*serve)
	code := someip.EOK
	payload := s.res.Payload
	if err := s.res.Err; err != nil {
		if re, ok := err.(*RemoteError); ok {
			code = re.Code
		} else {
			code = someip.ENotOK
		}
		payload = nil
	}
	s.rt.reply(s.src, &s.msg, payload, code, s.res.Tag)
	s.release()
}

// handleRequest dispatches a request to its handler on the executor.
// Each invocation runs on a worker thread; ordering is up to the
// (simulated) scheduler. A request for an unknown or unoffered service
// or method is answered with an error — unless it is fire&forget, which
// per SOME/IP never gets a reply.
func (rt *Runtime) handleRequest(src someip.Addr, m *someip.Message) {
	code := someip.EUnknownService
	if sk, ok := rt.skeletons[m.Service]; ok && sk.offered {
		if h, ok := sk.handlers[m.Method]; ok {
			s := rt.newServe(src, m)
			s.method = h
			rt.exec.submit(s)
			return
		}
		code = someip.EUnknownMethod
	}
	if m.Type != someip.TypeRequestNoReturn {
		rt.reply(src, m, nil, code, nil)
	}
}

// reply sends a response to req; tag, when non-nil, rides the modified
// binding's tag trailer (the DEAR server method transactor resolves its
// future with the response tag ts+Ds).
func (rt *Runtime) reply(dst someip.Addr, req *someip.Message, payload []byte, code someip.ReturnCode, tag *logical.Tag) {
	typ := someip.TypeResponse
	if code != someip.EOK {
		typ = someip.TypeError
	}
	rt.out = someip.Message{
		Service:          req.Service,
		Method:           req.Method,
		Client:           req.Client,
		Session:          req.Session,
		InterfaceVersion: req.InterfaceVersion,
		Type:             typ,
		Code:             code,
		Payload:          payload,
		Tag:              tag,
	}
	rt.send(dst, &rt.out)
}

func (rt *Runtime) handleResponse(m *someip.Message) {
	fut, ok := rt.pending[m.Session]
	if !ok {
		return
	}
	delete(rt.pending, m.Session)
	var tag *logical.Tag
	if m.Tag != nil {
		t := *m.Tag
		tag = &t
	}
	if m.Type == someip.TypeError || m.Code != someip.EOK {
		fut.Resolve(Result{Err: &RemoteError{Code: m.Code}, Tag: tag})
		return
	}
	fut.Resolve(Result{Payload: m.Payload, Tag: tag})
}

// handleNotification submits one task per subscribed handler, each with
// its own copy of the message; the handlers share the payload.
func (rt *Runtime) handleNotification(m *someip.Message) {
	for _, h := range rt.eventSubs[eventKey{m.Service, m.Method}] {
		s := rt.newServe(nil, m)
		s.event = h
		rt.exec.submit(s)
	}
}

// Spawn starts an application process belonging to this runtime.
func (rt *Runtime) Spawn(name string, body func(*Ctx)) *des.Process {
	return rt.k.Spawn(rt.name+"."+name, func(p *des.Process) {
		body(&Ctx{p: p, rt: rt})
	})
}

// Every installs a periodic callback driven by the platform's local
// clock, mirroring the APD demonstrator's cyclic OS triggers: the first
// activation happens at local time now+offset, then every period of
// local time. If an activation overruns, missed grid slots are skipped
// (timer semantics).
func (rt *Runtime) Every(offset, period logical.Duration, fn func(*Ctx)) {
	if period <= 0 {
		panic("ara: Every needs a positive period")
	}
	clk := rt.Clock()
	rt.k.Spawn(rt.name+".periodic", func(p *des.Process) {
		start := clk.Now().Add(offset)
		for n := int64(0); ; {
			next := start.Add(logical.Duration(n) * period)
			// Map the local-time deadline to global simulated time under
			// the clock's current affine segment.
			p.WaitUntil(clk.GlobalAt(next))
			fn(&Ctx{p: p, rt: rt})
			// Skip any grid slots the activation overran.
			n++
			for clk.Now() >= start.Add(logical.Duration(n)*period) {
				n++
			}
		}
	})
}
