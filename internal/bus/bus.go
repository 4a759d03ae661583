package bus

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"switchboard/internal/metrics"
	"switchboard/internal/simnet"
)

// PubSub is the interface shared by the Switchboard bus and the
// full-mesh baseline, so experiments can swap them.
type PubSub interface {
	// Subscribe registers a subscriber at the given site.
	Subscribe(site simnet.SiteID, topic Topic, queue int) (*Subscription, error)
	// Publish sends payload on a topic from the given site. size is the
	// payload size in bytes for WAN bandwidth emulation.
	Publish(site simnet.SiteID, topic Topic, payload any, size int) error
	// WANMessages returns the number of inter-site transmissions so far.
	WANMessages() uint64
}

// Subscription is a live topic subscription.
type Subscription struct {
	ch     chan Publication // nil for SubscribeFunc subscriptions
	cancel func()
	once   sync.Once

	// mu serializes deliveries with each other and with Cancel: fn runs
	// under it, so once Cancel returns no call is running or can start.
	mu     sync.Mutex
	closed bool
	fn     func(Publication)
	// rev is the newest retained revision delivered. The retained value
	// handed over on subscribe can lose a race to a concurrent
	// publication; when it is not newer than rev it is skipped.
	rev    uint64
	onDrop func()
}

// Ch returns the delivery channel of a Subscribe subscription (nil for
// SubscribeFunc). It is closed on Cancel.
func (s *Subscription) Ch() <-chan Publication { return s.ch }

// Cancel removes the subscription and closes its channel. No delivery
// runs after it returns, so a SubscribeFunc callback must not call it.
func (s *Subscription) Cancel() { s.once.Do(s.cancel) }

// SetOnDrop installs a hook called once per publication dropped because
// this subscriber's queue was full. The bus sheds rather than blocks on
// slow subscribers by design; the hook lets consumers that care — the
// telemetry plane counts sheds — observe the loss without slowing
// delivery to other subscribers. fn runs on the delivering goroutine
// under the subscription lock, so it must not block or call back into
// the subscription. Safe for concurrent use.
func (s *Subscription) SetOnDrop(fn func()) {
	s.mu.Lock()
	s.onDrop = fn
	s.mu.Unlock()
}

// newChanSubscription is the channel form: its callback enqueues without
// blocking and sheds (counting through onDrop) when the queue is full.
func newChanSubscription(queue int) *Subscription {
	if queue <= 0 {
		queue = 64
	}
	s := &Subscription{ch: make(chan Publication, queue)}
	s.fn = func(p Publication) {
		select {
		case s.ch <- p:
		default:
			if s.onDrop != nil {
				s.onDrop()
			}
		}
	}
	return s
}

// deliver runs the subscriber's callback unless the subscription is
// cancelled, or p is the subscribe-time replay of a retained value and
// not newer than a publication already delivered. rev is p's retained
// revision (0 when unknown).
func (s *Subscription) deliver(p Publication, rev uint64, replay bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || (replay && rev <= s.rev) {
		return
	}
	s.rev = max(s.rev, rev)
	s.fn(p)
}

func (s *Subscription) closeCh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed && s.ch != nil {
		close(s.ch)
	}
	s.closed = true
}

// proxyMsg is the inter-proxy wire message.
type proxyMsg struct {
	kind    string // "pub", "sub", "unsub", "ack", "syncreq", "syncpub"
	topic   Topic
	payload any
	site    simnet.SiteID    // for sub/unsub/syncreq: the subscribing site
	from    simnet.SiteID    // sender's site, for acks and dedupe
	seq     uint64           // per-(sender,destination) sequence; 0 = best effort
	rev     uint64           // retained revision carried by pub/syncpub
	revs    map[Topic]uint64 // syncreq: the revisions the requester holds
	// pubNs is the Unix-nanosecond Publish timestamp, carried by fresh
	// "pub" copies so receivers can observe publish→deliver latency.
	// Retained replays and anti-entropy repairs carry 0: they deliver
	// old state whose age would skew the distribution.
	pubNs int64
}

// Bus is Switchboard's global message bus: one proxy per site.
type Bus struct {
	net     *simnet.Network
	mu      sync.RWMutex
	proxies map[simnet.SiteID]*proxy
	wanMsgs atomic.Uint64

	rel  atomic.Pointer[Reliability]
	beat atomic.Pointer[func()]

	sendErrors metrics.Counter
	retries    metrics.Counter
	drops      metrics.Counter
	duplicates metrics.Counter
	resyncs    metrics.Counter
	acks       metrics.Counter
	// pubLatency records publish→remote-delivery latency: WAN transit,
	// queueing, and any retransmissions before the first successful
	// delivery. Duplicate copies and retained/anti-entropy replays of
	// old state are excluded (they would skew the distribution).
	pubLatency *metrics.Histogram
}

// proxy is the per-site message-queuing proxy.
type proxy struct {
	bus  *Bus
	site simnet.SiteID
	ep   *simnet.Endpoint

	mu sync.Mutex
	// localSubs are subscribers attached to this proxy.
	localSubs map[Topic]map[*Subscription]bool
	// remoteFilters are the subscription filters installed here because
	// this proxy is the publisher's site for the topic: the set of
	// sites that must receive one copy of each publication.
	remoteFilters map[Topic]map[simnet.SiteID]int
	// retained is the last value published per topic. The bus carries
	// control-plane *state* (route records, instance lists), so a late
	// subscriber receives the current value on filter installation
	// instead of missing it forever.
	retained map[Topic]retainedMsg
	// revSeq numbers the retained revisions this proxy assigns as a
	// topic home; strictly increasing, so per-topic revisions are too.
	revSeq uint64

	// Reliable-delivery state (see reliable.go), guarded by outMu.
	outMu   sync.Mutex
	nextSeq map[simnet.SiteID]uint64
	pending map[simnet.SiteID]map[uint64]*pendingMsg
	seen    map[simnet.SiteID]*dedupe

	// stop is closed when run() exits; it stops retryLoop/resyncLoop.
	stop chan struct{}
}

type retainedMsg struct {
	payload any
	size    int
	// rev is the home-assigned revision: copies with rev ≤ the stored
	// one are stale (retransmission or reordering) and are suppressed.
	rev uint64
}

// New creates a bus over the given simulated network.
func New(net *simnet.Network) *Bus {
	b := &Bus{net: net, proxies: make(map[simnet.SiteID]*proxy), pubLatency: metrics.NewHistogram()}
	b.SetReliability(Reliability{})
	return b
}

// AddSite creates the proxy for a site. Every site that publishes or
// subscribes must be added first.
func (b *Bus) AddSite(site simnet.SiteID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.proxies[site]; ok {
		return fmt.Errorf("bus: site %s already added", site)
	}
	ep, err := b.net.Attach(simnet.Addr{Site: site, Host: "bus-proxy"}, 4096)
	if err != nil {
		return err
	}
	p := &proxy{
		bus:           b,
		site:          site,
		ep:            ep,
		localSubs:     make(map[Topic]map[*Subscription]bool),
		remoteFilters: make(map[Topic]map[simnet.SiteID]int),
		retained:      make(map[Topic]retainedMsg),
		nextSeq:       make(map[simnet.SiteID]uint64),
		pending:       make(map[simnet.SiteID]map[uint64]*pendingMsg),
		seen:          make(map[simnet.SiteID]*dedupe),
		stop:          make(chan struct{}),
	}
	b.proxies[site] = p
	go p.run()
	go p.retryLoop()
	go p.resyncLoop()
	return nil
}

var errNoProxy = errors.New("bus: no proxy for site")

func (b *Bus) proxyFor(site simnet.SiteID) (*proxy, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	p, ok := b.proxies[site]
	if !ok {
		return nil, fmt.Errorf("%w: %s", errNoProxy, site)
	}
	return p, nil
}

// Subscribe registers a subscriber at the given site, delivering on a
// channel of the given depth that sheds when full. If the topic's
// publisher site differs, a filter-install message is sent to that
// site's proxy so future publications are forwarded here.
func (b *Bus) Subscribe(site simnet.SiteID, topic Topic, queue int) (*Subscription, error) {
	return b.subscribe(site, topic, newChanSubscription(queue))
}

// SubscribeFunc registers a subscriber that the bus calls back with
// every publication, at delivery time: on a proxy goroutine, or on the
// publisher's goroutine for a same-site publication — including the
// current retained value, before SubscribeFunc returns. Nothing is
// queued or shed; fn must not block, and deliveries to one subscription
// never overlap.
func (b *Bus) SubscribeFunc(site simnet.SiteID, topic Topic, fn func(Publication)) (*Subscription, error) {
	return b.subscribe(site, topic, &Subscription{fn: fn})
}

func (b *Bus) subscribe(site simnet.SiteID, topic Topic, sub *Subscription) (*Subscription, error) {
	p, err := b.proxyFor(site)
	if err != nil {
		return nil, err
	}
	sub.cancel = func() { p.unsubscribe(topic, sub) }

	p.mu.Lock()
	subs, ok := p.localSubs[topic]
	if !ok {
		subs = make(map[*Subscription]bool)
		p.localSubs[topic] = subs
	}
	first := len(subs) == 0
	subs[sub] = true
	ret, hasRetained := p.retained[topic]
	p.mu.Unlock()

	// Deliver this proxy's retained copy (if any) so late subscribers
	// see current state immediately.
	if hasRetained {
		sub.deliver(Publication{Topic: topic, Payload: ret.payload}, ret.rev, true)
	}

	// Install the filter at the publisher's site on first local
	// subscriber for the topic. The home proxy responds with its
	// retained value, covering the publish-before-subscribe race.
	// Delivery is at-least-once: a lost install is retransmitted, and
	// the anti-entropy loop re-installs it even past the retry budget.
	if pubSite, ok := topic.PublisherSite(); ok && pubSite != site && first {
		_ = p.sendReliable(pubSite, proxyMsg{kind: "sub", topic: topic, site: site}, 64)
	}
	return sub, nil
}

func (p *proxy) unsubscribe(topic Topic, sub *Subscription) {
	p.mu.Lock()
	subs := p.localSubs[topic]
	delete(subs, sub)
	last := len(subs) == 0
	if last {
		delete(p.localSubs, topic)
	}
	p.mu.Unlock()
	sub.closeCh()
	if pubSite, ok := topic.PublisherSite(); ok && pubSite != p.site && last {
		_ = p.sendReliable(pubSite, proxyMsg{kind: "unsub", topic: topic, site: p.site}, 64)
	}
}

// Publish sends a payload on a topic. The publisher hands the message to
// its local proxy; the proxy delivers locally and sends exactly one copy
// per remote subscribed site.
func (b *Bus) Publish(site simnet.SiteID, topic Topic, payload any, size int) error {
	p, err := b.proxyFor(site)
	if err != nil {
		return err
	}
	pubNs := time.Now().UnixNano()
	pubSite, ok := topic.PublisherSite()
	if ok && pubSite != site {
		// Publishing from a site other than the topic's home: relay to
		// the home proxy, which owns the filters.
		return p.sendReliable(pubSite, proxyMsg{kind: "pub", topic: topic, payload: payload, pubNs: pubNs}, size)
	}
	p.fanOut(topic, payload, size, 0, pubNs)
	return nil
}

// fanOut delivers locally and to each remotely subscribed site,
// retaining the value (under a fresh revision) for late subscribers.
func (p *proxy) fanOut(topic Topic, payload any, size, hops int, pubNs int64) {
	p.mu.Lock()
	p.revSeq++
	rev := p.revSeq
	p.retained[topic] = retainedMsg{payload: payload, size: size, rev: rev}
	local := p.localSubsLocked(topic)
	var remote []simnet.SiteID
	for site := range p.remoteFilters[topic] {
		remote = append(remote, site)
	}
	p.mu.Unlock()

	for _, sub := range local {
		sub.deliver(Publication{Topic: topic, Payload: payload, Hops: hops}, rev, false)
	}
	for _, site := range remote {
		_ = p.sendReliable(site, proxyMsg{kind: "pub", topic: topic, payload: payload, rev: rev, pubNs: pubNs}, size)
	}
}

// applyRemote stores a forwarded retained copy and delivers it to local
// subscribers, unless the revision shows it is stale (a retransmitted or
// reordered copy of state this site has already moved past).
func (p *proxy) applyRemote(topic Topic, payload any, size int, rev uint64, pubNs int64) {
	p.mu.Lock()
	if cur, ok := p.retained[topic]; ok && rev > 0 && cur.rev >= rev {
		p.mu.Unlock()
		p.bus.duplicates.Inc()
		return
	}
	p.retained[topic] = retainedMsg{payload: payload, size: size, rev: rev}
	local := p.localSubsLocked(topic)
	p.mu.Unlock()
	if pubNs > 0 {
		p.bus.pubLatency.Observe(time.Duration(time.Now().UnixNano() - pubNs))
	}
	for _, sub := range local {
		sub.deliver(Publication{Topic: topic, Payload: payload, Hops: 1}, rev, false)
	}
}

// run drains the proxy's endpoint.
func (p *proxy) run() {
	defer close(p.stop)
	for m := range p.ep.Inbox() {
		pm, ok := m.Payload.(proxyMsg)
		if !ok {
			continue
		}
		if pm.kind == "ack" {
			p.handleAck(pm.from, pm.seq)
			continue
		}
		if pm.seq > 0 && !p.admitReliable(pm) {
			continue // duplicate of an already-processed transmission
		}
		switch pm.kind {
		case "sub":
			p.mu.Lock()
			f, ok := p.remoteFilters[pm.topic]
			if !ok {
				f = make(map[simnet.SiteID]int)
				p.remoteFilters[pm.topic] = f
			}
			f[pm.site]++
			ret, hasRetained := p.retained[pm.topic]
			p.mu.Unlock()
			if hasRetained {
				_ = p.sendReliable(pm.site, proxyMsg{kind: "pub", topic: pm.topic, payload: ret.payload, rev: ret.rev}, ret.size)
			}
		case "unsub":
			p.mu.Lock()
			if f, ok := p.remoteFilters[pm.topic]; ok {
				if f[pm.site]--; f[pm.site] <= 0 {
					delete(f, pm.site)
				}
				if len(f) == 0 {
					delete(p.remoteFilters, pm.topic)
				}
			}
			p.mu.Unlock()
		case "pub":
			if home, ok := pm.topic.PublisherSite(); ok && home == p.site {
				// We own the filters: fan out (1 hop so far).
				p.fanOut(pm.topic, pm.payload, m.Size, 1, pm.pubNs)
			} else {
				// Copy forwarded to us because we have local subs.
				p.applyRemote(pm.topic, pm.payload, m.Size, pm.rev, pm.pubNs)
			}
		case "syncreq":
			p.handleSyncReq(pm)
		case "syncpub":
			p.applyRemote(pm.topic, pm.payload, m.Size, pm.rev, 0)
		}
	}
}

// localSubsLocked lists the topic's local subscribers; p.mu is held.
func (p *proxy) localSubsLocked(topic Topic) []*Subscription {
	local := make([]*Subscription, 0, len(p.localSubs[topic]))
	for sub := range p.localSubs[topic] {
		local = append(local, sub)
	}
	return local
}

// WANMessages returns the count of inter-site proxy transmissions.
func (b *Bus) WANMessages() uint64 { return b.wanMsgs.Load() }

// RegisterMetrics publishes the bus's WAN delivery counters into a
// metrics registry. All are cumulative message counts mirroring Stats:
//
//	bus.wan_messages  inter-site proxy transmissions (incl. retries)
//	bus.send_errors   transmissions the network refused outright
//	bus.retries       retransmissions of unacknowledged messages
//	bus.drops         messages abandoned after the retry budget
//	bus.duplicates    stale or duplicate copies suppressed at receivers
//	bus.resyncs       topics repaired by the anti-entropy loop
//	bus.acks          acknowledgements processed by senders
//
// plus the delivery-latency histogram (durations in nanoseconds):
//
//	bus.publish_to_deliver_ms  Publish → first remote delivery
func (b *Bus) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("bus.wan_messages", b.wanMsgs.Load)
	r.CounterFunc("bus.send_errors", b.sendErrors.Load)
	r.CounterFunc("bus.retries", b.retries.Load)
	r.CounterFunc("bus.drops", b.drops.Load)
	r.CounterFunc("bus.duplicates", b.duplicates.Load)
	r.CounterFunc("bus.resyncs", b.resyncs.Load)
	r.CounterFunc("bus.acks", b.acks.Load)
	r.RegisterHistogram("bus.publish_to_deliver_ms", b.pubLatency)
}

// PublishToDeliver exposes the publish→remote-delivery latency
// histogram for experiments and tests.
func (b *Bus) PublishToDeliver() *metrics.Histogram { return b.pubLatency }

var _ PubSub = (*Bus)(nil)
