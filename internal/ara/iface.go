// Package ara implements the communication-management substrate of the
// AUTOSAR Adaptive Platform (ara::com) used by the paper: services are
// described by interfaces composed of methods, events and fields; servers
// implement skeletons, clients obtain proxies through service discovery,
// method calls return futures, and incoming work is dispatched onto a
// pool of (simulated) worker threads.
//
// The executor's dispatch behaviour deliberately models the paper's first
// and second sources of nondeterminism: each invocation is mapped to a
// worker thread and the processing order is determined by the (simulated,
// seeded) thread scheduler — not by issue order.
package ara

import (
	"fmt"

	"repro/internal/someip"
)

// MethodSpec describes one method of a service interface.
type MethodSpec struct {
	ID   someip.MethodID
	Name string
}

// EventSpec describes one event of a service interface.
type EventSpec struct {
	ID         someip.MethodID // must have the event flag set
	Name       string
	Eventgroup uint16
}

// FieldSpec describes one field: an exposed state variable with optional
// get/set methods and an optional change notifier event.
type FieldSpec struct {
	Name       string
	Get        someip.MethodID // 0 = no getter
	Set        someip.MethodID // 0 = no setter
	Notifier   someip.MethodID // 0 = no notifier; otherwise an event ID
	Eventgroup uint16
}

// ServiceInterface is the design-time description of a service, the
// ara::com equivalent of the ARXML service interface deployment.
type ServiceInterface struct {
	Name    string
	ID      someip.ServiceID
	Major   uint8
	Methods []MethodSpec
	Events  []EventSpec
	Fields  []FieldSpec
}

// Method looks up a method spec by name.
func (si *ServiceInterface) Method(name string) (MethodSpec, bool) {
	for _, m := range si.Methods {
		if m.Name == name {
			return m, true
		}
	}
	return MethodSpec{}, false
}

// Event looks up an event spec by name.
func (si *ServiceInterface) Event(name string) (EventSpec, bool) {
	for _, e := range si.Events {
		if e.Name == name {
			return e, true
		}
	}
	return EventSpec{}, false
}

// Field looks up a field spec by name.
func (si *ServiceInterface) Field(name string) (FieldSpec, bool) {
	for _, f := range si.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return FieldSpec{}, false
}

// Validate checks internal consistency of the interface description.
func (si *ServiceInterface) Validate() error {
	if si.ID == 0 || si.ID == someip.SDService {
		return fmt.Errorf("ara: interface %s: invalid service id %#x", si.Name, uint16(si.ID))
	}
	seen := map[someip.MethodID]string{}
	claim := func(id someip.MethodID, what string) error {
		if id == 0 {
			return nil
		}
		if prev, dup := seen[id]; dup {
			return fmt.Errorf("ara: interface %s: id %#x used by both %s and %s", si.Name, uint16(id), prev, what)
		}
		seen[id] = what
		return nil
	}
	for _, m := range si.Methods {
		if m.ID.IsEvent() {
			return fmt.Errorf("ara: interface %s: method %s has event flag set", si.Name, m.Name)
		}
		if err := claim(m.ID, "method "+m.Name); err != nil {
			return err
		}
	}
	for _, e := range si.Events {
		if !e.ID.IsEvent() {
			return fmt.Errorf("ara: interface %s: event %s lacks event flag", si.Name, e.Name)
		}
		if err := claim(e.ID, "event "+e.Name); err != nil {
			return err
		}
	}
	for _, f := range si.Fields {
		if f.Get.IsEvent() || f.Set.IsEvent() {
			return fmt.Errorf("ara: interface %s: field %s get/set must be methods", si.Name, f.Name)
		}
		if f.Notifier != 0 && !f.Notifier.IsEvent() {
			return fmt.Errorf("ara: interface %s: field %s notifier must be an event", si.Name, f.Name)
		}
		if err := claim(f.Get, "field "+f.Name+" getter"); err != nil {
			return err
		}
		if err := claim(f.Set, "field "+f.Name+" setter"); err != nil {
			return err
		}
		if err := claim(f.Notifier, "field "+f.Name+" notifier"); err != nil {
			return err
		}
	}
	return nil
}
