package bus

import (
	"strconv"
	"sync"
	"sync/atomic"

	"switchboard/internal/simnet"
)

// Mesh is the full-mesh broadcast baseline of Figure 9: every publisher
// knows every subscriber and sends each of them a separate copy directly
// over the wide area. With many subscribers per topic this multiplies
// wide-area traffic and queues messages at the publisher's uplink, which
// is exactly the behaviour the experiment quantifies.
type Mesh struct {
	net *simnet.Network

	mu   sync.RWMutex
	subs map[Topic]map[*meshSub]bool
	// senders are per-site endpoints used to transmit copies.
	senders map[simnet.SiteID]*simnet.Endpoint
	wanMsgs atomic.Uint64
	seq     atomic.Uint64
}

type meshSub struct {
	sub  *Subscription
	site simnet.SiteID
	ep   *simnet.Endpoint
}

// NewMesh creates the baseline over the given network.
func NewMesh(net *simnet.Network) *Mesh {
	return &Mesh{
		net:     net,
		subs:    make(map[Topic]map[*meshSub]bool),
		senders: make(map[simnet.SiteID]*simnet.Endpoint),
	}
}

// Subscribe attaches a dedicated endpoint for the subscriber (full mesh:
// no shared per-site delivery).
func (m *Mesh) Subscribe(site simnet.SiteID, topic Topic, queue int) (*Subscription, error) {
	sub := newChanSubscription(queue)
	id := m.seq.Add(1)
	ep, err := m.net.Attach(simnet.Addr{Site: site, Host: meshHost("sub", id)}, cap(sub.ch))
	if err != nil {
		return nil, err
	}
	ms := &meshSub{site: site, ep: ep}
	sub.cancel = func() {
		m.mu.Lock()
		if set, ok := m.subs[topic]; ok {
			delete(set, ms)
			if len(set) == 0 {
				delete(m.subs, topic)
			}
		}
		m.mu.Unlock()
		m.net.Detach(ep.Addr())
		sub.closeCh()
	}
	ms.sub = sub

	m.mu.Lock()
	set, ok := m.subs[topic]
	if !ok {
		set = make(map[*meshSub]bool)
		m.subs[topic] = set
	}
	set[ms] = true
	m.mu.Unlock()

	go func() {
		for msg := range ep.Inbox() {
			hops := 0
			if msg.From.Site != site {
				hops = 1
			}
			sub.deliver(Publication{Topic: topic, Payload: msg.Payload, Hops: hops}, 0, false)
		}
	}()
	return sub, nil
}

// Publish sends one copy of the payload to every subscriber directly.
func (m *Mesh) Publish(site simnet.SiteID, topic Topic, payload any, size int) error {
	sender, err := m.senderFor(site)
	if err != nil {
		return err
	}
	m.mu.RLock()
	targets := make([]*meshSub, 0, len(m.subs[topic]))
	for ms := range m.subs[topic] {
		targets = append(targets, ms)
	}
	m.mu.RUnlock()
	for _, ms := range targets {
		if ms.site != site {
			m.wanMsgs.Add(1)
		}
		if err := sender.Send(ms.ep.Addr(), payload, size); err != nil {
			// Keep going: full mesh drops under overload, which is the
			// phenomenon Figure 9 measures.
			continue
		}
	}
	return nil
}

func (m *Mesh) senderFor(site simnet.SiteID) (*simnet.Endpoint, error) {
	m.mu.RLock()
	ep, ok := m.senders[site]
	m.mu.RUnlock()
	if ok {
		return ep, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if ep, ok := m.senders[site]; ok {
		return ep, nil
	}
	ep, err := m.net.Attach(simnet.Addr{Site: site, Host: "mesh-pub"}, 64)
	if err != nil {
		return nil, err
	}
	m.senders[site] = ep
	return ep, nil
}

// WANMessages returns the number of inter-site copies sent.
func (m *Mesh) WANMessages() uint64 { return m.wanMsgs.Load() }

func meshHost(kind string, id uint64) string {
	return "mesh-" + kind + "-" + strconv.FormatUint(id, 10)
}

var _ PubSub = (*Mesh)(nil)
