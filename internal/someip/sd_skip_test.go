package someip

import (
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
)

// sdSkipWorld runs a provider agent offering key and returns the
// sessions of the offers a listener joining its consumer topic at 3.5 s
// receives, the network's control-plane counters at 5.5 s, and the
// offers an early listener received. With early set, that listener
// joins at time 0, so every announcement is marshalled and delivered:
// the marshalling reference. Without it the topic stays empty until
// the late join, and the agent skips building those announcements.
func sdSkipWorld(t *testing.T, key ServiceKey, early bool) (sessions []SessionID, sends, fanout uint64, earlyGot int) {
	t.Helper()
	k := des.NewKernel(1)
	net := simnet.NewNetwork(k, simnet.Config{})
	ph := net.AddHost("provider", nil)
	a, err := NewAgent(ph)
	if err != nil {
		t.Fatal(err)
	}
	app := ph.MustBind(40000)
	listen := func(name string, at logical.Time, got func(*Message)) {
		ep := net.AddHost(name, nil).MustBind(SDPort)
		NewConn(ep, false).OnMessage(func(_ Addr, m *Message) { got(m) })
		k.At(at, func() { net.JoinTopic(SDGroup, consumerTopic(key), ep) })
	}
	if early {
		listen("early", 0, func(*Message) { earlyGot++ })
	}
	listen("late", logical.Time(3500*logical.Millisecond), func(m *Message) {
		sessions = append(sessions, m.Session)
	})
	k.At(0, func() { a.Offer(key, 1, app.Addr()) })
	// Cyclic offers are daemon events; a plain event keeps the run going.
	end := logical.Time(5500 * logical.Millisecond)
	k.At(end, func() {})
	k.Run(end)
	sends, fanout = net.ControlPlane()
	return sessions, sends, fanout, earlyGot
}

// An agent announcing on a consumer topic nobody else has joined builds
// no SD message, and nothing observable changes: later messages carry
// the sessions a marshalling reference gives them, and the control
// plane counts the same sends and the same fan-out to real members.
func TestSDSkipsEmptyTopics(t *testing.T) {
	key := ServiceKey{Service: 0x2000, Instance: 1}
	skipSessions, skipSends, skipFanout, _ := sdSkipWorld(t, key, false)
	refSessions, refSends, refFanout, refEarly := sdSkipWorld(t, key, true)
	// Offer at 0 s and cyclic offers at 1–3 s take sessions 1–4; the late
	// listener hears the 4 s and 5 s offers.
	want := []SessionID{5, 6}
	if len(skipSessions) != 2 || skipSessions[0] != want[0] || skipSessions[1] != want[1] {
		t.Errorf("skipping agent: late listener got sessions %v, want %v", skipSessions, want)
	}
	if len(refSessions) != 2 || refSessions[0] != want[0] || refSessions[1] != want[1] {
		t.Errorf("reference: late listener got sessions %v, want %v", refSessions, want)
	}
	if refEarly != 6 {
		t.Errorf("reference early listener got %d offers, want 6", refEarly)
	}
	if skipSends != refSends || skipFanout != refFanout-uint64(refEarly) {
		t.Errorf("control plane (sends, fanout) = (%d, %d), reference (%d, %d) less %d early deliveries",
			skipSends, skipFanout, refSends, refFanout, refEarly)
	}

	// Direct: an announcement on an empty topic, and on a topic whose only
	// member is the sender itself, allocates nothing (no message is
	// built) yet advances the session and counts one send with no
	// fan-out.
	k := des.NewKernel(1)
	net := simnet.NewNetwork(k, simnet.Config{})
	h := net.AddHost("p", nil)
	a, err := NewAgent(h)
	if err != nil {
		t.Fatal(err)
	}
	off := &localOffer{key: key, major: 1, endpoint: h.MustBind(40000).Addr()}
	entries := []Entry{a.offerEntry(off)}
	for _, self := range []bool{false, true} {
		if self {
			a.Interest(key) // the sender joins its own consumer topic
		}
		sends0, fanout0 := net.ControlPlane()
		session0 := a.session
		if allocs := testing.AllocsPerRun(100, func() { a.sendTopic(consumerTopic(key), entries) }); allocs != 0 {
			t.Errorf("self-member=%v: %.1f allocs per announcement, want 0", self, allocs)
		}
		sends, fanout := net.ControlPlane()
		if n := a.session - session0; n != 101 || sends-sends0 != 101 || fanout != fanout0 {
			t.Errorf("self-member=%v: 101 announcements advanced the session by %d, sends by %d, fan-out by %d",
				self, n, sends-sends0, fanout-fanout0)
		}
	}
	// The reference path marshals: a member other than the sender turns
	// the skip off.
	net.JoinTopic(SDGroup, consumerTopic(key), net.AddHost("q", nil).MustBind(SDPort))
	if allocs := testing.AllocsPerRun(100, func() { a.sendTopic(consumerTopic(key), entries) }); allocs == 0 {
		t.Error("an announcement with an audience built no message")
	}
}
