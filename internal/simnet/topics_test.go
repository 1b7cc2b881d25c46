package simnet

import (
	"testing"
)

var testGroup = Addr{Host: MulticastBase + 7, Port: 9}

// collect installs an OnReceive callback that appends payload copies as
// strings (so later buffer mutation cannot retroactively corrupt the
// observation) along with the receiving endpoint's index.
func collect(eps []*Endpoint, order *[]int, payloads *[][]byte) {
	for i, ep := range eps {
		i, ep := i, ep
		ep.OnReceive(func(dg Datagram) {
			*order = append(*order, i)
			*payloads = append(*payloads, dg.Payload)
		})
	}
}

func TestTopicFanoutJoinOrderExcludesSender(t *testing.T) {
	k, n := newNet(1)
	eps := make([]*Endpoint, 4)
	for i := range eps {
		eps[i] = n.AddHost("h", nil).MustBind(100)
	}
	// eps[3] joins another topic of the group: it must not receive.
	n.JoinTopic(testGroup, 43, eps[3])
	n.JoinTopic(testGroup, 42, eps[2])
	n.JoinTopic(testGroup, 42, eps[0])
	n.JoinTopic(testGroup, 42, eps[1])
	n.JoinTopic(testGroup, 42, eps[1]) // idempotent

	var order []int
	var payloads [][]byte
	collect(eps, &order, &payloads)
	k.At(0, func() { eps[0].SendTopic(testGroup, 42, []byte("sd")) })
	k.RunAll()

	// Join order was 2, 0, 1; the sender (0) is excluded. All members
	// share the default link model, so delivery preserves fan-out order.
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("delivery order = %v, want [2 1]", order)
	}
	if len(n.topics[topicKey{testGroup, 42}]) != 3 {
		t.Errorf("members = %d, want 3", len(n.topics[topicKey{testGroup, 42}]))
	}
}

func TestTopicIsolation(t *testing.T) {
	k, n := newNet(1)
	a := n.AddHost("a", nil).MustBind(1)
	b := n.AddHost("b", nil).MustBind(1)
	c := n.AddHost("c", nil).MustBind(1)
	n.JoinTopic(testGroup, 1, b)
	n.JoinTopic(testGroup, 2, c)

	var order []int
	var payloads [][]byte
	collect([]*Endpoint{a, b, c}, &order, &payloads)
	k.At(0, func() { a.SendTopic(testGroup, 1, []byte("one")) })
	k.RunAll()
	if len(order) != 1 || order[0] != 1 {
		t.Errorf("topic 1 delivered to %v, want [1]", order)
	}
}

func TestLeaveTopicStopsDelivery(t *testing.T) {
	k, n := newNet(1)
	a := n.AddHost("a", nil).MustBind(1)
	b := n.AddHost("b", nil).MustBind(1)
	n.JoinTopic(testGroup, 5, b)
	n.LeaveTopic(testGroup, 5, b)

	var order []int
	var payloads [][]byte
	collect([]*Endpoint{a, b}, &order, &payloads)
	k.At(0, func() { a.SendTopic(testGroup, 5, []byte("x")) })
	k.RunAll()
	if len(order) != 0 {
		t.Errorf("delivered after leave: %v", order)
	}
	if len(n.topics[topicKey{testGroup, 5}]) != 0 {
		t.Errorf("members = %d after leave", len(n.topics[topicKey{testGroup, 5}]))
	}
}

func TestCrashPurgesTopicMembership(t *testing.T) {
	k, n := newNet(1)
	a := n.AddHost("a", nil).MustBind(1)
	hb := n.AddHost("b", nil)
	b := hb.MustBind(1)
	n.JoinTopic(testGroup, 9, b)

	hb.Crash(0)
	var order []int
	var payloads [][]byte
	collect([]*Endpoint{a, b}, &order, &payloads)
	k.At(1, func() { a.SendTopic(testGroup, 9, []byte("x")) })
	k.RunAll()
	if len(order) != 0 {
		t.Errorf("crashed host received topic traffic: %v", order)
	}
	if len(n.topics[topicKey{testGroup, 9}]) != 0 {
		t.Errorf("members = %d after crash", len(n.topics[topicKey{testGroup, 9}]))
	}
}

// Regression test for the fan-out copy path: every receiver must own an
// independent buffer — mutating one receiver's payload (or the sender's
// buffer, after SendTopic returns) must not alias any other.
func TestMulticastReceiversNeverAliasBuffers(t *testing.T) {
	k, n := newNet(1)
	src := n.AddHost("src", nil).MustBind(1)
	r1 := n.AddHost("r1", nil).MustBind(1)
	r2 := n.AddHost("r2", nil).MustBind(1)
	group := Addr{Host: MulticastBase + 2, Port: 1}
	n.JoinTopic(group, 1, r1)
	n.JoinTopic(group, 1, r2)

	var bufs [][]byte
	for _, ep := range []*Endpoint{r1, r2} {
		ep.OnReceive(func(dg Datagram) { bufs = append(bufs, dg.Payload) })
	}
	sent := []byte("payload")
	k.At(0, func() {
		src.SendTopic(group, 1, sent)
		copy(sent, "XXXXXXX") // sender reuses its buffer immediately
	})
	k.RunAll()

	if len(bufs) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(bufs))
	}
	if string(bufs[0]) != "payload" || string(bufs[1]) != "payload" {
		t.Fatalf("sender mutation leaked into receivers: %q %q", bufs[0], bufs[1])
	}
	copy(bufs[0], "zzzzzzz")
	if string(bufs[1]) != "payload" {
		t.Errorf("receiver buffers alias: %q", bufs[1])
	}
	if &bufs[0][0] == &bufs[1][0] || &bufs[0][0] == &sent[0] {
		t.Error("payload buffers share backing storage")
	}
}

// Same ownership guarantee, mutating the second receiver's copy.
func TestTopicReceiversNeverAliasBuffers(t *testing.T) {
	k, n := newNet(1)
	src := n.AddHost("src", nil).MustBind(1)
	r1 := n.AddHost("r1", nil).MustBind(1)
	r2 := n.AddHost("r2", nil).MustBind(1)
	n.JoinTopic(testGroup, 3, r1)
	n.JoinTopic(testGroup, 3, r2)

	var bufs [][]byte
	for _, ep := range []*Endpoint{r1, r2} {
		ep.OnReceive(func(dg Datagram) { bufs = append(bufs, dg.Payload) })
	}
	sent := []byte("topicmsg")
	k.At(0, func() {
		src.SendTopic(testGroup, 3, sent)
		copy(sent, "YYYYYYYY")
	})
	k.RunAll()

	if len(bufs) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(bufs))
	}
	if string(bufs[0]) != "topicmsg" || string(bufs[1]) != "topicmsg" {
		t.Fatalf("sender mutation leaked: %q %q", bufs[0], bufs[1])
	}
	copy(bufs[1], "wwwwwwww")
	if string(bufs[0]) != "topicmsg" {
		t.Errorf("receiver buffers alias: %q", bufs[0])
	}
}

func TestControlPlaneCounters(t *testing.T) {
	k, n := newNet(1)
	a := n.AddHost("a", nil).MustBind(1)
	b := n.AddHost("b", nil).MustBind(1)
	c := n.AddHost("c", nil).MustBind(1)
	n.JoinTopic(testGroup, 1, b)
	n.JoinTopic(testGroup, 1, c)
	group := Addr{Host: MulticastBase + 3, Port: 1}
	n.JoinTopic(group, 1, b)

	k.At(0, func() {
		a.SendTopic(testGroup, 1, []byte("x")) // fan-out 2
		a.SendTopic(group, 1, []byte("y"))     // fan-out 1
		a.Send(b.Addr(), []byte("z"))          // unicast: not control plane
	})
	k.RunAll()
	sends, fanout := n.ControlPlane()
	if sends != 2 || fanout != 3 {
		t.Errorf("control plane = (%d, %d), want (2, 3)", sends, fanout)
	}
}

func TestSendTopicPanicsOnUnicastGroup(t *testing.T) {
	k, n := newNet(1)
	a := n.AddHost("a", nil).MustBind(1)
	_ = k
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	a.SendTopic(Addr{Host: 1, Port: 2}, 1, nil)
}

func TestJoinTopicPanicsOnUnicastGroup(t *testing.T) {
	_, n := newNet(1)
	a := n.AddHost("a", nil).MustBind(1)
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	n.JoinTopic(Addr{Host: 1, Port: 2}, 1, a)
}
