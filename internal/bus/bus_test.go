package bus

import (
	"testing"
	"time"

	"switchboard/internal/simnet"
)

func newTestNet(t *testing.T, sites ...simnet.SiteID) *simnet.Network {
	t.Helper()
	n := simnet.New(1)
	t.Cleanup(n.Close)
	for i, a := range sites {
		for _, b := range sites[i+1:] {
			n.SetPath(a, b, simnet.PathProfile{Delay: 5 * time.Millisecond})
		}
	}
	return n
}

func newTestBus(t *testing.T, n *simnet.Network, sites ...simnet.SiteID) *Bus {
	t.Helper()
	b := New(n)
	for _, s := range sites {
		if err := b.AddSite(s); err != nil {
			t.Fatalf("AddSite(%s): %v", s, err)
		}
	}
	return b
}

func recvOrTimeout(t *testing.T, sub *Subscription) Publication {
	t.Helper()
	select {
	case p := <-sub.Ch():
		return p
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for publication")
		return Publication{}
	}
}

// TestTopicPublisherSite pins MakeTopic's layout and PublisherSite's
// parse, edge cases included (the results of the earlier strings.Split
// implementation), and that PublisherSite allocates nothing.
func TestTopicPublisherSite(t *testing.T) {
	topic := MakeTopic("c1", "e3", "vnf_O", "B", "forwarders")
	if string(topic) != "/c1/e3/vnf_O/site_B/forwarders" {
		t.Errorf("topic = %q", topic)
	}
	for _, c := range []struct {
		topic Topic
		site  simnet.SiteID
		ok    bool
	}{
		{topic, "B", true},
		{"/routes/all/global/site_A/records", "A", true},
		{"site_A", "A", true},
		{"site_A/x", "A", true},
		{"/x/site_A", "A", true},
		{"/x/site_A/", "A", true},
		{"/site_/x", "", false},
		{"/site_/site_C/x", "C", true},
		{"/site_A/site_B", "A", true},
		{"/xsite_A/y", "", false},
		{"/site_site_A/y", "site_A", true},
		{"/no/site/here", "", false},
		{"", "", false},
		{"/", "", false},
		{"//", "", false},
		{"site_", "", false},
	} {
		site, ok := c.topic.PublisherSite()
		if site != c.site || ok != c.ok {
			t.Errorf("%q.PublisherSite() = %q, %v; want %q, %v", c.topic, site, ok, c.site, c.ok)
		}
	}
	if n := testing.AllocsPerRun(100, func() { topic.PublisherSite() }); n != 0 {
		t.Errorf("PublisherSite: %v allocs, want 0", n)
	}
}

func TestLocalPubSub(t *testing.T) {
	n := newTestNet(t, "A")
	b := newTestBus(t, n, "A")
	topic := MakeTopic("c1", "e1", "vnf_G", "A", "instances")
	sub, err := b.Subscribe("A", topic, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("A", topic, "hello", 10); err != nil {
		t.Fatal(err)
	}
	p := recvOrTimeout(t, sub)
	if p.Payload != "hello" || p.Hops != 0 {
		t.Errorf("got %+v, want local delivery of hello", p)
	}
	if b.WANMessages() != 0 {
		t.Errorf("WAN messages = %d, want 0 for same-site pubsub", b.WANMessages())
	}
}

func TestRemoteSubscription(t *testing.T) {
	n := newTestNet(t, "A", "B")
	b := newTestBus(t, n, "A", "B")
	topic := MakeTopic("c1", "e3", "vnf_G", "A", "instances")
	sub, err := b.Subscribe("B", topic, 8)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // filter install crosses the WAN
	if err := b.Publish("A", topic, 42, 10); err != nil {
		t.Fatal(err)
	}
	p := recvOrTimeout(t, sub)
	if p.Payload != 42 || p.Hops != 1 {
		t.Errorf("got %+v, want payload 42 with 1 WAN hop", p)
	}
}

func TestSingleWANCopyPerSite(t *testing.T) {
	n := newTestNet(t, "A", "B")
	b := newTestBus(t, n, "A", "B")
	topic := MakeTopic("c1", "e3", "vnf_G", "A", "instances")
	// Five subscribers at site B: still one WAN copy per publication.
	subs := make([]*Subscription, 5)
	for i := range subs {
		s, err := b.Subscribe("B", topic, 8)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	time.Sleep(30 * time.Millisecond)
	before := b.WANMessages() // includes the single filter install
	if err := b.Publish("A", topic, "x", 100); err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		recvOrTimeout(t, s)
	}
	if got := b.WANMessages() - before; got != 1 {
		t.Errorf("WAN messages per publication = %d, want 1", got)
	}
}

func TestUnsubscribedSiteReceivesNothing(t *testing.T) {
	n := newTestNet(t, "A", "B", "C")
	b := newTestBus(t, n, "A", "B", "C")
	topic := MakeTopic("c1", "e3", "vnf_G", "A", "instances")
	subB, err := b.Subscribe("B", topic, 8)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	before := b.WANMessages()
	if err := b.Publish("A", topic, "x", 10); err != nil {
		t.Fatal(err)
	}
	recvOrTimeout(t, subB)
	// Exactly one WAN copy: site C receives nothing.
	if got := b.WANMessages() - before; got != 1 {
		t.Errorf("WAN messages = %d, want 1 (no copy to C)", got)
	}
}

func TestCancelStopsDeliveryAndUninstallsFilter(t *testing.T) {
	n := newTestNet(t, "A", "B")
	b := newTestBus(t, n, "A", "B")
	topic := MakeTopic("c1", "e3", "vnf_G", "A", "instances")
	sub, err := b.Subscribe("B", topic, 8)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	sub.Cancel()
	sub.Cancel() // idempotent
	time.Sleep(30 * time.Millisecond)
	before := b.WANMessages()
	if err := b.Publish("A", topic, "x", 10); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if got := b.WANMessages() - before; got != 0 {
		t.Errorf("WAN messages after unsubscribe = %d, want 0", got)
	}
	if _, ok := <-sub.Ch(); ok {
		t.Error("channel not closed after Cancel")
	}
}

func TestPublishFromNonHomeSiteRelays(t *testing.T) {
	n := newTestNet(t, "A", "B", "C")
	b := newTestBus(t, n, "A", "B", "C")
	// Topic homed at B; subscriber at C; publisher at A.
	topic := MakeTopic("c1", "e3", "vnf_O", "B", "forwarders")
	sub, err := b.Subscribe("C", topic, 8)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := b.Publish("A", topic, "relay", 10); err != nil {
		t.Fatal(err)
	}
	p := recvOrTimeout(t, sub)
	if p.Payload != "relay" {
		t.Errorf("payload = %v", p.Payload)
	}
}

func TestSubscribeUnknownSite(t *testing.T) {
	n := newTestNet(t, "A")
	b := newTestBus(t, n, "A")
	if _, err := b.Subscribe("Z", "t", 1); err == nil {
		t.Error("subscribe at unknown site succeeded")
	}
	if err := b.Publish("Z", "t", 1, 1); err == nil {
		t.Error("publish at unknown site succeeded")
	}
}

func TestDuplicateAddSite(t *testing.T) {
	n := newTestNet(t, "A")
	b := newTestBus(t, n, "A")
	if err := b.AddSite("A"); err == nil {
		t.Error("duplicate AddSite succeeded")
	}
}

func TestMeshDeliversToAllSubscribers(t *testing.T) {
	n := newTestNet(t, "A", "B")
	m := NewMesh(n)
	topic := Topic("/t")
	var subs []*Subscription
	for i := 0; i < 3; i++ {
		s, err := m.Subscribe("B", topic, 8)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	if err := m.Publish("A", topic, "x", 10); err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		p := recvOrTimeout(t, s)
		if p.Payload != "x" {
			t.Errorf("payload = %v", p.Payload)
		}
	}
	// Full mesh: one WAN copy per subscriber.
	if got := m.WANMessages(); got != 3 {
		t.Errorf("WAN messages = %d, want 3", got)
	}
}

func TestMeshCancel(t *testing.T) {
	n := newTestNet(t, "A", "B")
	m := NewMesh(n)
	topic := Topic("/t")
	s, err := m.Subscribe("B", topic, 8)
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel()
	if err := m.Publish("A", topic, "x", 10); err != nil {
		t.Fatal(err)
	}
	if got := m.WANMessages(); got != 0 {
		t.Errorf("WAN messages after cancel = %d, want 0", got)
	}
}

func TestBusFewerWANMessagesThanMesh(t *testing.T) {
	// The core Figure 9 claim in miniature: with S sites × K
	// subscribers, the bus sends S copies per publication, the mesh S×K.
	sites := []simnet.SiteID{"A", "B", "C", "D"}
	n := newTestNet(t, sites...)
	b := newTestBus(t, n, sites...)
	m := NewMesh(n)
	topicB := MakeTopic("c1", "e1", "vnf_G", "A", "instances")
	const perSite = 4
	var busSubs, meshSubs []*Subscription
	for _, s := range sites[1:] {
		for k := 0; k < perSite; k++ {
			bs, err := b.Subscribe(s, topicB, 64)
			if err != nil {
				t.Fatal(err)
			}
			busSubs = append(busSubs, bs)
			ms, err := m.Subscribe(s, topicB, 64)
			if err != nil {
				t.Fatal(err)
			}
			meshSubs = append(meshSubs, ms)
		}
	}
	time.Sleep(50 * time.Millisecond)
	busBase := b.WANMessages()
	const pubs = 10
	for i := 0; i < pubs; i++ {
		if err := b.Publish("A", topicB, i, 100); err != nil {
			t.Fatal(err)
		}
		if err := m.Publish("A", topicB, i, 100); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range busSubs {
		for i := 0; i < pubs; i++ {
			recvOrTimeout(t, s)
		}
	}
	for _, s := range meshSubs {
		for i := 0; i < pubs; i++ {
			recvOrTimeout(t, s)
		}
	}
	busMsgs := b.WANMessages() - busBase
	meshMsgs := m.WANMessages()
	if busMsgs != pubs*3 {
		t.Errorf("bus WAN messages = %d, want %d (one per subscribed site)", busMsgs, pubs*3)
	}
	if meshMsgs != pubs*3*perSite {
		t.Errorf("mesh WAN messages = %d, want %d (one per subscriber)", meshMsgs, pubs*3*perSite)
	}
	if busMsgs >= meshMsgs {
		t.Error("bus should send strictly fewer WAN messages than mesh")
	}
}
