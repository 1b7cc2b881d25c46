package dear

import (
	"repro/internal/ara"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/reactor"
	"repro/internal/simnet"
	"repro/internal/someip"
)

// --- Logical time ---

// Time is a point in logical (or simulated physical) time in nanoseconds.
type Time = logical.Time

// Duration is a span of logical time in nanoseconds.
type Duration = logical.Duration

// Tag is a superdense-time tag (time point, microstep).
type Tag = logical.Tag

// Duration units.
const (
	Microsecond = logical.Microsecond
	Millisecond = logical.Millisecond
	Second      = logical.Second
)

// --- Reactor runtime ---

// Environment owns a reactor program and its scheduler.
type Environment = reactor.Environment

// Options configures an Environment. Without a Clock it runs on logical
// time alone, on the goroutine that calls Run.
type Options = reactor.Options

// Reactor is a named collection of reactions, ports, actions and timers.
type Reactor = reactor.Reactor

// Reaction is a unit of computation triggered by tagged events.
type Reaction = reactor.Reaction

// ReactionCtx is passed to reaction bodies and deadline handlers.
type ReactionCtx = reactor.Ctx

// Port is a typed reactor port.
type Port[T any] = reactor.Port[T]

// Action is a typed schedulable event source (logical or physical).
type Action[T any] = reactor.Action[T]

// Timer triggers reactions periodically.
type Timer = reactor.Timer

// SimClock drives an environment deterministically from a DES kernel;
// it is the only source of physical time an environment has.
type SimClock = reactor.SimClock

// NewEnvironment creates an empty reactor environment.
func NewEnvironment(opts Options) *Environment { return reactor.NewEnvironment(opts) }

// NewSimClock creates a deterministic clock for a scheduler running as
// DES process p; local may be nil to use global simulated time.
func NewSimClock(p *Process, local *LocalClock) *SimClock {
	return reactor.NewSimClock(p, local)
}

// NewInputPort creates an input port on reactor r.
func NewInputPort[T any](r *Reactor, name string) *Port[T] {
	return reactor.NewInputPort[T](r, name)
}

// NewOutputPort creates an output port on reactor r.
func NewOutputPort[T any](r *Reactor, name string) *Port[T] {
	return reactor.NewOutputPort[T](r, name)
}

// NewLogicalAction creates a logical action with a minimum delay.
func NewLogicalAction[T any](r *Reactor, name string, minDelay Duration) *Action[T] {
	return reactor.NewLogicalAction[T](r, name, minDelay)
}

// NewTimer creates a timer on reactor r (period 0 = one-shot).
func NewTimer(r *Reactor, name string, offset, period Duration) *Timer {
	return reactor.NewTimer(r, name, offset, period)
}

// Connect wires an upstream port to a downstream port with zero logical
// delay.
func Connect[T any](up, down *Port[T]) { reactor.Connect(up, down) }

// --- DEAR framework ---

// SWC is a DEAR-enabled software component: a tagged ara::com runtime
// plus a reactor environment running as a platform process.
type SWC = core.SWC

// TransactorConfig carries per-transactor timing parameters (deadline D,
// latency bound L, clock error bound E).
type TransactorConfig = core.TransactorConfig

// LinkConfig carries the timing assumptions of a DEAR deployment.
type LinkConfig = core.LinkConfig

// Transactors translate between reactor ports and AP service interfaces
// (Figure 3 of the paper).
type (
	// ClientEventTransactor emits received notifications as port events.
	ClientEventTransactor = core.ClientEventTransactor
	// ServerEventTransactor publishes port events as notifications.
	ServerEventTransactor = core.ServerEventTransactor
	// ClientFieldTransactor bundles get/set/notifier for a field.
	ClientFieldTransactor = core.ClientFieldTransactor
	// ServerFieldTransactor exposes reactor state as an AP field.
	ServerFieldTransactor = core.ServerFieldTransactor
)

// NewSWC creates a DEAR software component on a simulated platform.
func NewSWC(host *Host, cfg RuntimeConfig) (*SWC, error) { return core.NewSWC(host, cfg) }

// NewClientEventTransactor creates a client-role event transactor.
func NewClientEventTransactor(env *Environment, swc *SWC, iface *ServiceInterface, instance InstanceID, event string, cfg TransactorConfig) (*ClientEventTransactor, error) {
	return core.NewClientEventTransactor(env, swc, iface, instance, event, cfg)
}

// NewServerEventTransactor creates a server-role event transactor.
func NewServerEventTransactor(env *Environment, swc *SWC, sk *Skeleton, event string, cfg TransactorConfig) (*ServerEventTransactor, error) {
	return core.NewServerEventTransactor(env, swc, sk, event, cfg)
}

// NewClientFieldTransactor creates the composite field transactor
// (two method transactors plus the notifier event transactor).
func NewClientFieldTransactor(env *Environment, swc *SWC, iface *ServiceInterface, instance InstanceID, field string, cfg TransactorConfig) (*ClientFieldTransactor, error) {
	return core.NewClientFieldTransactor(env, swc, iface, instance, field, cfg)
}

// NewServerFieldTransactor creates the composite server-side field
// transactor.
func NewServerFieldTransactor(env *Environment, swc *SWC, sk *Skeleton, field string, cfg TransactorConfig) (*ServerFieldTransactor, error) {
	return core.NewServerFieldTransactor(env, swc, sk, field, cfg)
}

// --- ara::com substrate ---

// ServiceInterface describes a service (methods, events, fields).
type ServiceInterface = ara.ServiceInterface

// MethodSpec describes one method.
type MethodSpec = ara.MethodSpec

// EventSpec describes one event.
type EventSpec = ara.EventSpec

// FieldSpec describes one field.
type FieldSpec = ara.FieldSpec

// Runtime is the per-process ara::com runtime.
type Runtime = ara.Runtime

// RuntimeConfig configures a Runtime.
type RuntimeConfig = ara.Config

// ExecConfig configures the worker-thread executor of a runtime.
type ExecConfig = ara.ExecConfig

// Skeleton is the server-side service access object.
type Skeleton = ara.Skeleton

// Future is the asynchronous result of a method call.
type Future = ara.Future

// HandlerCtx is passed to ara method/event handlers.
type HandlerCtx = ara.Ctx

// NewRuntime creates an ara::com runtime on a host.
func NewRuntime(host *Host, cfg RuntimeConfig) (*Runtime, error) {
	return ara.NewRuntime(host, cfg)
}

// --- SOME/IP ---

// ServiceID identifies a service interface on the wire.
type ServiceID = someip.ServiceID

// MethodID identifies a method or event on the wire.
type MethodID = someip.MethodID

// InstanceID distinguishes instances of a service.
type InstanceID = someip.InstanceID

// EventID builds the wire identifier for event number n.
func EventID(n uint16) MethodID { return someip.EventID(n) }

// --- Simulation substrate ---

// Kernel is the deterministic discrete-event simulation engine.
type Kernel = des.Kernel

// Process is a simulated thread of control.
type Process = des.Process

// LocalClock models a platform's drifting, resynchronized oscillator.
type LocalClock = des.LocalClock

// ClockConfig configures a LocalClock.
type ClockConfig = des.ClockConfig

// Network is a simulated switched network.
type Network = simnet.Network

// NetworkConfig configures a Network.
type NetworkConfig = simnet.Config

// Host is a simulated platform attached to a network.
type Host = simnet.Host

// JitterLatency models base + per-byte + truncated-Gaussian latency.
type JitterLatency = simnet.JitterLatency

// NewKernel creates a simulation kernel seeded with seed.
func NewKernel(seed uint64) *Kernel { return des.NewKernel(seed) }

// NewNetwork creates a simulated network on the kernel.
func NewNetwork(k *Kernel, cfg NetworkConfig) *Network { return simnet.NewNetwork(k, cfg) }
