package core

import (
	"fmt"

	"repro/internal/ara"
	"repro/internal/reactor"
	"repro/internal/someip"
)

// fieldSpecs derives pseudo method/event specs for a field's accessors,
// since fields are composed of a get method, a set method and a notifier
// event ("interaction with fields requires the use of one event and two
// method transactors" — Section III-B).
func fieldSpecs(iface *ara.ServiceInterface, field string) (get, set ara.MethodSpec, notify ara.EventSpec, err error) {
	spec, ok := iface.Field(field)
	if !ok {
		err = fmt.Errorf("core: %s has no field %q", iface.Name, field)
		return
	}
	if spec.Get == 0 || spec.Set == 0 || spec.Notifier == 0 {
		err = fmt.Errorf("core: field %s needs get, set and notifier for a field transactor", field)
		return
	}
	get = ara.MethodSpec{ID: spec.Get, Name: field + ".get"}
	set = ara.MethodSpec{ID: spec.Set, Name: field + ".set"}
	notify = ara.EventSpec{ID: spec.Notifier, Name: field + ".changed", Eventgroup: spec.Eventgroup}
	return
}

// ClientFieldTransactor composes the transactors needed to interact with
// an AP field from the client role: two method transactors (get, set)
// and one event transactor (the change notifier).
type ClientFieldTransactor struct {
	// GetRequest triggers a get; the value arrives on Value.
	GetRequest *reactor.Port[[]byte]
	// SetRequest carries a new value to write; the accepted value arrives
	// on SetResult.
	SetRequest *reactor.Port[[]byte]
	// Value is the get result output.
	Value *reactor.Port[[]byte]
	// SetResult is the set acknowledgment output.
	SetResult *reactor.Port[[]byte]
	// Changed emits change notifications.
	Changed *reactor.Port[[]byte]

	get    *ClientMethodTransactor
	set    *ClientMethodTransactor
	notify *ClientEventTransactor
}

// NewClientFieldTransactor builds the composite transactor for a field.
// The field must provide a getter, a setter and a notifier.
func NewClientFieldTransactor(env *reactor.Environment, swc *SWC, iface *ara.ServiceInterface, instance someip.InstanceID, field string, cfg TransactorConfig) (*ClientFieldTransactor, error) {
	get, set, notify, err := fieldSpecs(iface, field)
	if err != nil {
		return nil, err
	}
	t := &ClientFieldTransactor{
		get:    newClientMethodTransactor(env, swc, iface, instance, get, cfg),
		set:    newClientMethodTransactor(env, swc, iface, instance, set, cfg),
		notify: newClientEventTransactor(env, swc, iface, instance, notify, cfg),
	}
	t.GetRequest = t.get.Request
	t.Value = t.get.Response
	t.SetRequest = t.set.Request
	t.SetResult = t.set.Response
	t.Changed = t.notify.Out
	return t, nil
}

// Stats aggregates the error counters of the three transactors.
func (t *ClientFieldTransactor) Stats() TransactorStats {
	return sumStats(t.get.Stats(), t.set.Stats(), t.notify.Stats())
}

// ServerFieldTransactor exposes a field whose state lives in the server
// reactor: get and set invocations arrive as events; values written to
// UpdateIn are published through the change notifier.
type ServerFieldTransactor struct {
	// GetRequest emits an (empty) payload per get invocation.
	GetRequest *reactor.Port[[]byte]
	// GetResponse accepts the value to return for the oldest get.
	GetResponse *reactor.Port[[]byte]
	// SetRequest emits the proposed value per set invocation.
	SetRequest *reactor.Port[[]byte]
	// SetResponse accepts the accepted value for the oldest set.
	SetResponse *reactor.Port[[]byte]
	// UpdateIn publishes a new value through the change notifier.
	UpdateIn *reactor.Port[[]byte]

	get    *ServerMethodTransactor
	set    *ServerMethodTransactor
	notify *ServerEventTransactor
}

// NewServerFieldTransactor builds the composite server-side transactor.
// It installs the field's get and set handlers on the skeleton, keeping
// the field's state in the server reactor.
func NewServerFieldTransactor(env *reactor.Environment, swc *SWC, sk *ara.Skeleton, field string, cfg TransactorConfig) (*ServerFieldTransactor, error) {
	get, set, notify, err := fieldSpecs(sk.Interface(), field)
	if err != nil {
		return nil, err
	}
	t := &ServerFieldTransactor{
		get:    newServerMethodTransactor(env, swc, sk, get, cfg),
		set:    newServerMethodTransactor(env, swc, sk, set, cfg),
		notify: newServerEventTransactor(env, swc, sk, notify, cfg),
	}
	t.GetRequest = t.get.Request
	t.GetResponse = t.get.Response
	t.SetRequest = t.set.Request
	t.SetResponse = t.set.Response
	t.UpdateIn = t.notify.In
	return t, nil
}

// Stats aggregates the error counters of the three transactors.
func (t *ServerFieldTransactor) Stats() TransactorStats {
	return sumStats(t.get.Stats(), t.set.Stats(), t.notify.Stats())
}

func sumStats(all ...TransactorStats) TransactorStats {
	var out TransactorStats
	for _, s := range all {
		out.Forwarded += s.Forwarded
		out.DeadlineViolations += s.DeadlineViolations
		out.SafeToProcessViolations += s.SafeToProcessViolations
		out.UntaggedDropped += s.UntaggedDropped
		out.RemoteErrors += s.RemoteErrors
	}
	return out
}
