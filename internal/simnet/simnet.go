// Package simnet is the wide-area substrate for end-to-end experiments:
// named sites connected by emulated WAN paths with one-way propagation
// delay, optional bandwidth (serialization delay), and optional loss.
// Endpoints — forwarders, VNF instances, edge instances, controllers,
// message-bus proxies — attach to a site and exchange messages; delivery
// between sites is FIFO per ordered site pair, as on a real tunnel.
//
// It replaces the paper's testbeds (AWS EC2 regions, a private OpenStack
// cloud, CPE boxes) with an in-process equivalent that exercises the same
// code paths in Switchboard's control and data planes.
package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"switchboard/internal/metrics"
	"switchboard/internal/packet"
)

// SiteID names a cloud or edge site ("siteA", "aws-east", "cpe-1").
type SiteID string

// Addr identifies an endpoint: a host name within a site.
type Addr struct {
	Site SiteID
	Host string
}

func (a Addr) String() string { return string(a.Site) + "/" + a.Host }

// Message is a delivered payload.
type Message struct {
	From    Addr
	To      Addr
	Payload any
	// Size in bytes, used for bandwidth emulation (0 = negligible).
	Size int
	// SentAt is the wall-clock send time, for latency measurements.
	SentAt time.Time
}

// PathProfile describes the emulated WAN path between two sites. All
// fields are dynamic: SetPath at runtime changes the behaviour of
// messages sent afterwards (in-flight messages keep their old timing).
type PathProfile struct {
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Bandwidth in bytes/second; 0 means unlimited.
	Bandwidth float64
	// Loss is the drop probability in [0, 1).
	Loss float64
	// Jitter adds a uniformly random extra delay in [0, Jitter) per
	// message. Jittered messages may arrive out of order.
	Jitter time.Duration
	// Reorder is the probability in [0, 1) that a message is held back
	// an extra Delay/2+Jitter, letting later messages overtake it.
	Reorder float64
}

// Network is a set of sites and attached endpoints.
type Network struct {
	mu        sync.RWMutex
	endpoints map[Addr]*Endpoint
	profiles  map[[2]SiteID]PathProfile
	pipes     map[[2]SiteID]*pipe
	rng       *rand.Rand
	rngMu     sync.Mutex
	closed    bool
	faults    faultState
	stats     netCounters
}

// netCounters are the network's delivery counters. A batch message
// counts once (its entries travel as one transmission); WAN-loss drops
// count per lost batch entry, matching per-packet loss on a real wire.
type netCounters struct {
	msgsSent, msgsDelivered, dropsQueueFull, dropsWanLoss, dropsFault atomic.Uint64
}

// NetStats is a snapshot of the network's delivery counters.
type NetStats struct {
	// MsgsSent counts messages accepted by send (before loss/faults).
	MsgsSent uint64
	// MsgsDelivered counts messages placed into a receiver's inbox.
	MsgsDelivered uint64
	// DropsQueueFull counts messages dropped at a full receiver queue.
	DropsQueueFull uint64
	// DropsWanLoss counts WAN-loss drops (per batch entry).
	DropsWanLoss uint64
	// DropsFault counts messages swallowed by injected partitions.
	DropsFault uint64
}

// Stats returns a snapshot of the delivery counters.
func (n *Network) Stats() NetStats {
	return NetStats{
		MsgsSent:       n.stats.msgsSent.Load(),
		MsgsDelivered:  n.stats.msgsDelivered.Load(),
		DropsQueueFull: n.stats.dropsQueueFull.Load(),
		DropsWanLoss:   n.stats.dropsWanLoss.Load(),
		DropsFault:     n.stats.dropsFault.Load(),
	}
}

// RegisterMetrics publishes the network's counters into a metrics
// registry. All counts are messages except drops_wan_loss (per batch
// entry); endpoints is a gauge of currently attached addresses:
//
//	simnet.msgs_sent        messages accepted by send
//	simnet.msgs_delivered   messages placed into receiver inboxes
//	simnet.drops_queue_full messages dropped at full receiver queues
//	simnet.drops_wan_loss   WAN-loss drops
//	simnet.drops_fault      messages swallowed by injected partitions
//	simnet.endpoints        gauge: attached endpoints
func (n *Network) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("simnet.msgs_sent", n.stats.msgsSent.Load)
	r.CounterFunc("simnet.msgs_delivered", n.stats.msgsDelivered.Load)
	r.CounterFunc("simnet.drops_queue_full", n.stats.dropsQueueFull.Load)
	r.CounterFunc("simnet.drops_wan_loss", n.stats.dropsWanLoss.Load)
	r.CounterFunc("simnet.drops_fault", n.stats.dropsFault.Load)
	r.GaugeFunc("simnet.endpoints", func() float64 {
		n.mu.RLock()
		defer n.mu.RUnlock()
		return float64(len(n.endpoints))
	})
}

// New returns an empty network. Seed drives loss decisions.
func New(seed int64) *Network {
	return &Network{
		endpoints: make(map[Addr]*Endpoint),
		profiles:  make(map[[2]SiteID]PathProfile),
		pipes:     make(map[[2]SiteID]*pipe),
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// randFloat draws one uniform [0,1) sample from the seeded source.
func (n *Network) randFloat() float64 {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Float64()
}

// SetPath configures the WAN profile between two sites, symmetrically.
// Intra-site delivery is always immediate and lossless.
func (n *Network) SetPath(a, b SiteID, p PathProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.profiles[[2]SiteID{a, b}] = p
	n.profiles[[2]SiteID{b, a}] = p
}

// Path returns the profile between two sites (zero profile if unset or
// same site).
func (n *Network) Path(a, b SiteID) PathProfile {
	if a == b {
		return PathProfile{}
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.profiles[[2]SiteID{a, b}]
}

// Errors returned by Send.
var (
	ErrNoEndpoint = errors.New("simnet: no such endpoint")
	ErrClosed     = errors.New("simnet: network closed")
	ErrQueueFull  = errors.New("simnet: receive queue full")
)

// ErrClaimed is returned by Claim when the endpoint already has an
// active consumer.
var ErrClaimed = errors.New("simnet: endpoint already claimed by a consumer")

// Endpoint is an attached host. Receive from Inbox().
//
// An endpoint's inbox supports exactly one active consumer: two
// goroutines draining the same inbox would silently split bursts
// between them, destroying per-flow ordering. Consumer loops (Runner,
// RunnerPool, VNF and edge instances) enforce this with Claim/Release;
// anything driving an endpoint directly should do the same.
type Endpoint struct {
	addr    Addr
	inbox   chan Message
	net     *Network
	once    sync.Once
	claimed atomic.Bool
}

// Claim marks the endpoint as having an active consumer. It fails with
// ErrClaimed when another consumer already holds the claim, making the
// "one drain loop per endpoint" contract explicit instead of silently
// interleaving drains.
func (e *Endpoint) Claim() error {
	if !e.claimed.CompareAndSwap(false, true) {
		return fmt.Errorf("%w: %v", ErrClaimed, e.addr)
	}
	return nil
}

// Release returns the endpoint to the unclaimed state, allowing a new
// consumer to Claim it (e.g. a runner restarted after Stop).
func (e *Endpoint) Release() { e.claimed.Store(false) }

// Attach registers an endpoint with the given inbox capacity.
func (n *Network) Attach(addr Addr, queue int) (*Endpoint, error) {
	if queue <= 0 {
		queue = 256
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.endpoints[addr]; ok {
		return nil, fmt.Errorf("simnet: endpoint %v already attached", addr)
	}
	ep := &Endpoint{addr: addr, inbox: make(chan Message, queue), net: n}
	n.endpoints[addr] = ep
	return ep, nil
}

// Detach removes an endpoint and closes its inbox.
func (n *Network) Detach(addr Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep := n.endpoints[addr]; ep != nil {
		delete(n.endpoints, addr)
		ep.once.Do(func() { close(ep.inbox) })
	}
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() Addr { return e.addr }

// Inbox returns the receive channel. It is closed on Detach/Close.
func (e *Endpoint) Inbox() <-chan Message { return e.inbox }

// Send delivers a payload to another endpoint, applying the WAN profile
// between the two sites. Size 0 payloads skip bandwidth emulation.
func (e *Endpoint) Send(to Addr, payload any, size int) error {
	return e.net.send(Message{
		From: e.addr, To: to, Payload: payload, Size: size, SentAt: time.Now(),
	})
}

// SendBatch delivers a packet batch to one endpoint as a single inbox
// message: one endpoint lookup, one pipe enqueue, and one receiver
// wakeup per burst instead of per packet. WAN loss still applies to each
// batch entry individually (lossy entries are filtered in place, without
// re-boxing payloads); propagation delay and jitter apply to the burst
// as a whole, since a back-to-back burst rides one tunnel transmission.
// Ownership of the batch and its packets passes to the receiver; on a
// returned error the caller still owns them.
func (e *Endpoint) SendBatch(to Addr, b *packet.Batch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	return e.Send(to, b, b.TotalSize())
}

// RecvBatch receives up to len(buf) messages: it blocks until at least
// one message is available, then drains whatever else is already queued
// without blocking. Returns the number received; 0 means the inbox
// closed. It never blocks when the inbox is non-empty.
func (e *Endpoint) RecvBatch(buf []Message) int {
	if len(buf) == 0 {
		return 0
	}
	m, ok := <-e.inbox
	if !ok {
		return 0
	}
	buf[0] = m
	return 1 + e.drain(buf[1:])
}

// RecvBatchContext is RecvBatch with cancellation: it also returns 0
// when ctx is done before a message arrives.
func (e *Endpoint) RecvBatchContext(ctx context.Context, buf []Message) int {
	if len(buf) == 0 {
		return 0
	}
	select {
	case <-ctx.Done():
		return 0
	case m, ok := <-e.inbox:
		if !ok {
			return 0
		}
		buf[0] = m
		return 1 + e.drain(buf[1:])
	}
}

// TryRecvBatch drains up to len(buf) already-queued messages without
// ever blocking. Returns the number received (0 when the inbox is empty
// or closed).
func (e *Endpoint) TryRecvBatch(buf []Message) int { return e.drain(buf) }

// drain moves queued messages into buf without blocking.
func (e *Endpoint) drain(buf []Message) int {
	n := 0
	for n < len(buf) {
		select {
		case m, ok := <-e.inbox:
			if !ok {
				return n
			}
			buf[n] = m
			n++
		default:
			return n
		}
	}
	return n
}

func (n *Network) send(m Message) error {
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		return ErrClosed
	}
	dst, ok := n.endpoints[m.To]
	profile := n.profiles[[2]SiteID{m.From.Site, m.To.Site}]
	if !ok {
		n.mu.RUnlock()
		return fmt.Errorf("%w: %v", ErrNoEndpoint, m.To)
	}
	n.stats.msgsSent.Add(1)
	if n.faults.drops(m.From.Site, m.To.Site) {
		n.mu.RUnlock()
		n.stats.dropsFault.Add(1)
		return nil // silently swallowed by the injected fault
	}

	sameSite := m.From.Site == m.To.Site
	if sameSite || (profile.Delay == 0 && profile.Bandwidth == 0 && profile.Loss == 0 &&
		profile.Jitter == 0 && profile.Reorder == 0) {
		// Immediate local delivery, under the read lock: Detach and Close
		// close inboxes under the write lock, so no send hits a closed one.
		err := deliver(dst, m)
		n.mu.RUnlock()
		return err
	}
	n.mu.RUnlock()
	if profile.Loss > 0 {
		if b, ok := m.Payload.(*packet.Batch); ok {
			// Loss is per batch entry, as on a real wire: each packet of
			// a burst faces the drop probability independently. Survivors
			// stay in the same batch container (no re-boxing).
			before := b.Len()
			b.Filter(func(int) bool { return n.randFloat() >= profile.Loss })
			if lost := before - b.Len(); lost > 0 {
				n.stats.dropsWanLoss.Add(uint64(lost))
			}
			if b.Len() == 0 {
				return nil // whole burst lost
			}
			m.Size = b.TotalSize()
		} else if n.randFloat() < profile.Loss {
			n.stats.dropsWanLoss.Add(1)
			return nil // silently lost, like a real WAN
		}
	}
	p := n.pipeFor(m.From.Site, m.To.Site)
	p.enqueue(m)
	return nil
}

func deliver(dst *Endpoint, m Message) error {
	select {
	case dst.inbox <- m:
		dst.net.stats.msgsDelivered.Add(1)
		return nil
	default:
		dst.net.stats.dropsQueueFull.Add(1)
		return fmt.Errorf("%w: %v", ErrQueueFull, dst.addr)
	}
}

// pipe is the delivery queue for one ordered site pair. A single
// goroutine drains it in arrival order, modeling propagation plus
// serialization delay. Without jitter or reorder the queue is FIFO, as
// on a real tunnel; jitter and reorder perturb per-message arrivals and
// the sorted insertion lets later messages overtake.
type pipe struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []pipeItem
	a, b   SiteID
	net    *Network
	closed bool
	// txFree is when the emulated transmitter is next idle, for
	// bandwidth-based serialization delay.
	txFree time.Time
}

type pipeItem struct {
	m       Message
	arrival time.Time
}

func (n *Network) pipeFor(a, b SiteID) *pipe {
	key := [2]SiteID{a, b}
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.pipes[key]; ok {
		return p
	}
	p := &pipe{a: a, b: b, net: n}
	p.cond = sync.NewCond(&p.mu)
	n.pipes[key] = p
	go p.run()
	return p
}

func (p *pipe) enqueue(m Message) {
	now := time.Now()
	// The profile is re-read per message so SetPath changes (and fault
	// flaps that adjust delay or jitter) apply to traffic immediately.
	profile := p.net.Path(p.a, p.b)
	extra := time.Duration(0)
	if profile.Jitter > 0 {
		extra += time.Duration(p.net.randFloat() * float64(profile.Jitter))
	}
	if profile.Reorder > 0 && p.net.randFloat() < profile.Reorder {
		extra += profile.Delay/2 + profile.Jitter
	}
	p.mu.Lock()
	// Serialization delay: the transmitter sends Size bytes at
	// Bandwidth; packets queue behind each other.
	start := now
	if p.txFree.After(start) {
		start = p.txFree
	}
	if profile.Bandwidth > 0 && m.Size > 0 {
		tx := time.Duration(float64(m.Size) / profile.Bandwidth * float64(time.Second))
		p.txFree = start.Add(tx)
		start = p.txFree
	}
	arrival := start.Add(profile.Delay + extra)
	// Insert keeping the queue sorted by arrival (stable: equal arrivals
	// stay FIFO). The common case appends at the tail in O(1).
	i := len(p.queue)
	for i > 0 && p.queue[i-1].arrival.After(arrival) {
		i--
	}
	p.queue = append(p.queue, pipeItem{})
	copy(p.queue[i+1:], p.queue[i:])
	p.queue[i] = pipeItem{m: m, arrival: arrival}
	p.cond.Signal()
	p.mu.Unlock()
}

func (p *pipe) run() {
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		item := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()

		if wait := time.Until(item.arrival); wait > 0 {
			time.Sleep(wait)
		}
		p.net.mu.RLock() // see send: inboxes close under the write lock
		if dst, ok := p.net.endpoints[item.m.To]; ok && !p.net.closed {
			_ = deliver(dst, item.m) // drop on full queue, like a NIC ring
		}
		p.net.mu.RUnlock()
	}
}

// Close shuts the network down: all pipes stop and all inboxes close.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	pipes := make([]*pipe, 0, len(n.pipes))
	for _, p := range n.pipes {
		pipes = append(pipes, p)
	}
	n.mu.Unlock()
	for _, p := range pipes {
		p.mu.Lock()
		p.closed = true
		p.cond.Signal()
		p.mu.Unlock()
	}
	for _, ep := range eps {
		ep.once.Do(func() { close(ep.inbox) })
	}
}

// Endpoints returns the currently attached addresses (diagnostics).
func (n *Network) Endpoints() []Addr {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]Addr, 0, len(n.endpoints))
	for a := range n.endpoints {
		out = append(out, a)
	}
	return out
}
