package bus

import (
	"time"

	"switchboard/internal/simnet"
)

// The bus carries control-plane state across the WAN, and the WAN loses
// messages: lossy paths, partitions, whole-site blackouts. Delivery
// between proxies is therefore at-least-once:
//
//   - every payload-bearing inter-proxy message carries a per-(sender,
//     destination) sequence number and is retransmitted with capped
//     exponential backoff until acknowledged or MaxAttempts is reached;
//   - receivers acknowledge every sequenced message and suppress
//     duplicates through a sliding dedupe window;
//   - retained topic state carries a home-assigned revision, so copies
//     that arrive late (retransmission, reordering) never roll a
//     subscriber's view backwards;
//   - an anti-entropy loop periodically offers each home proxy the
//     revisions a subscriber site knows, and the home re-sends anything
//     newer — this resynchronizes retained state after a partition heals
//     even when every retransmission during the partition was exhausted,
//     and re-installs subscription filters whose install message died.

// Reliability tunes the at-least-once delivery machinery. Zero fields
// take the package defaults.
type Reliability struct {
	// RetryBase is the backoff before the first retransmission; it
	// doubles per attempt up to RetryMax.
	RetryBase time.Duration
	// RetryMax caps the retransmission backoff.
	RetryMax time.Duration
	// MaxAttempts is the total number of transmissions (first send
	// included) before the bus gives up on a message and counts a drop.
	MaxAttempts int
	// ResyncInterval is the anti-entropy period: how often a proxy
	// offers its retained revisions to each remote home it subscribes
	// to.
	ResyncInterval time.Duration
}

func (r Reliability) withDefaults() Reliability {
	if r.RetryBase <= 0 {
		r.RetryBase = 100 * time.Millisecond
	}
	if r.RetryMax <= 0 {
		r.RetryMax = time.Second
	}
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 15
	}
	if r.ResyncInterval <= 0 {
		r.ResyncInterval = 250 * time.Millisecond
	}
	return r
}

// SetReliability replaces the delivery tuning at runtime (tests tighten
// the retry budget to force the anti-entropy path).
func (b *Bus) SetReliability(r Reliability) {
	r = r.withDefaults()
	b.rel.Store(&r)
}

func (b *Bus) reliability() Reliability { return *b.rel.Load() }

// SetBeat installs a health-watchdog heartbeat the bus machinery calls
// on every retry-loop tick of every site proxy. The retry ticker fires
// whether or not traffic is flowing, so — unlike data-plane runner
// beats — bus silence past the stall threshold always means the bus's
// goroutines are actually wedged. A nil beat disables it.
func (b *Bus) SetBeat(beat func()) { b.beat.Store(&beat) }

// Stats is a snapshot of the bus's WAN delivery counters.
type Stats struct {
	// WANMessages counts first-copy inter-site payload transmissions
	// (the paper's bus-efficiency metric; acks, retransmissions, and
	// anti-entropy traffic are tracked separately below).
	WANMessages uint64
	// SendErrors counts transmissions the substrate rejected outright
	// (receive queue full, endpoint missing). Previously these were
	// silently discarded; now they surface here and the retransmission
	// layer recovers the message.
	SendErrors uint64
	// Retries counts retransmissions of unacknowledged messages.
	Retries uint64
	// Drops counts messages abandoned after MaxAttempts transmissions —
	// the WAN losses the bus could not hide.
	Drops uint64
	// Duplicates counts suppressed receive-side copies: retransmitted
	// messages already seen, and stale retained revisions.
	Duplicates uint64
	// Resyncs counts retained records re-sent by anti-entropy after a
	// subscriber site was found behind the home's revision.
	Resyncs uint64
	// Acks counts acknowledgements processed by senders; with
	// WANMessages and Retries it shows how much of the reliable-delivery
	// round-trip budget acknowledgement traffic consumes.
	Acks uint64
}

// Stats returns the current delivery counters.
func (b *Bus) Stats() Stats {
	return Stats{
		WANMessages: b.wanMsgs.Load(),
		SendErrors:  b.sendErrors.Load(),
		Retries:     b.retries.Load(),
		Drops:       b.drops.Load(),
		Duplicates:  b.duplicates.Load(),
		Resyncs:     b.resyncs.Load(),
		Acks:        b.acks.Load(),
	}
}

// WANDrops is the companion counter to WANMessages: messages the bus
// failed to deliver across the WAN — abandoned retransmissions plus
// sends the substrate rejected.
func (b *Bus) WANDrops() uint64 {
	return b.drops.Load() + b.sendErrors.Load()
}

// outMsg is a transmission collected under a lock and sent after it.
type outMsg struct {
	site simnet.SiteID
	m    proxyMsg
	size int
}

// pendingMsg is an unacknowledged reliable transmission.
type pendingMsg struct {
	m         proxyMsg
	size      int
	attempts  int
	nextRetry time.Time
}

// dedupe is a per-source sliding window of seen sequence numbers.
type dedupe struct {
	maxSeen uint64
	seen    map[uint64]bool
}

// mark records seq and reports whether it was new.
func (d *dedupe) mark(seq uint64) bool {
	if d.seen[seq] {
		return false
	}
	d.seen[seq] = true
	if seq > d.maxSeen {
		d.maxSeen = seq
	}
	if len(d.seen) > 4096 {
		for s := range d.seen {
			if s+2048 < d.maxSeen {
				delete(d.seen, s)
			}
		}
	}
	return true
}

// sendReliable transmits a payload-bearing message to a remote proxy
// with at-least-once semantics: it is tracked until acknowledged and
// retransmitted by retryLoop. The first-attempt transport error is not
// returned — it is counted and recovery is the retry layer's job.
func (p *proxy) sendReliable(site simnet.SiteID, m proxyMsg, size int) error {
	if site == p.site {
		return p.sendRaw(site, m, size, false)
	}
	m.from = p.site
	rel := p.bus.reliability()
	p.outMu.Lock()
	p.nextSeq[site]++
	m.seq = p.nextSeq[site]
	byseq, ok := p.pending[site]
	if !ok {
		byseq = make(map[uint64]*pendingMsg)
		p.pending[site] = byseq
	}
	byseq[m.seq] = &pendingMsg{m: m, size: size, attempts: 1, nextRetry: time.Now().Add(rel.RetryBase)}
	p.outMu.Unlock()
	_ = p.sendRaw(site, m, size, true)
	return nil
}

// sendRaw transmits once. countWAN marks first-copy payload messages,
// which feed the WANMessages metric; acks, retransmissions, and
// anti-entropy traffic pass false.
func (p *proxy) sendRaw(site simnet.SiteID, m proxyMsg, size int, countWAN bool) error {
	if site != p.site && countWAN {
		p.bus.wanMsgs.Add(1)
	}
	err := p.ep.Send(simnet.Addr{Site: site, Host: "bus-proxy"}, m, size)
	if err != nil {
		p.bus.sendErrors.Inc()
	}
	return err
}

// handleAck clears the pending entry a receiver just confirmed.
func (p *proxy) handleAck(from simnet.SiteID, seq uint64) {
	p.bus.acks.Inc()
	p.outMu.Lock()
	if byseq := p.pending[from]; byseq != nil {
		delete(byseq, seq)
	}
	p.outMu.Unlock()
}

// admitReliable acknowledges a sequenced message and reports whether it
// is fresh (false = duplicate of an already-processed transmission).
func (p *proxy) admitReliable(pm proxyMsg) bool {
	ack := proxyMsg{kind: "ack", seq: pm.seq, from: p.site}
	_ = p.sendRaw(pm.from, ack, 16, false)
	p.outMu.Lock()
	d, ok := p.seen[pm.from]
	if !ok {
		d = &dedupe{seen: make(map[uint64]bool)}
		p.seen[pm.from] = d
	}
	fresh := d.mark(pm.seq)
	p.outMu.Unlock()
	if !fresh {
		p.bus.duplicates.Inc()
	}
	return fresh
}

// retryLoop retransmits unacknowledged messages with capped exponential
// backoff, abandoning them (and counting a drop) after MaxAttempts.
func (p *proxy) retryLoop() {
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
		}
		if beat := p.bus.beat.Load(); beat != nil && *beat != nil {
			(*beat)()
		}
		rel := p.bus.reliability()
		now := time.Now()
		var out []outMsg
		p.outMu.Lock()
		for site, byseq := range p.pending {
			for seq, pm := range byseq {
				if pm.nextRetry.After(now) {
					continue
				}
				if pm.attempts >= rel.MaxAttempts {
					delete(byseq, seq)
					p.bus.drops.Inc()
					continue
				}
				pm.attempts++
				backoff := rel.RetryBase << uint(min(pm.attempts-1, 16))
				if backoff > rel.RetryMax || backoff <= 0 {
					backoff = rel.RetryMax
				}
				pm.nextRetry = now.Add(backoff)
				out = append(out, outMsg{site: site, m: pm.m, size: pm.size})
			}
		}
		p.outMu.Unlock()
		for _, r := range out {
			p.bus.retries.Inc()
			_ = p.sendRaw(r.site, r.m, r.size, false)
		}
	}
}

// resyncLoop is the anti-entropy side of a subscriber proxy: it
// periodically tells each remote home which retained revisions this
// site holds; the home re-sends anything newer (and re-installs the
// subscription filter if it was lost). Sync traffic is best-effort —
// a lost round is covered by the next one.
func (p *proxy) resyncLoop() {
	for {
		interval := p.bus.reliability().ResyncInterval
		select {
		case <-p.stop:
			return
		case <-time.After(interval):
		}
		p.mu.Lock()
		byHome := make(map[simnet.SiteID]map[Topic]uint64)
		for topic := range p.localSubs {
			home, ok := topic.PublisherSite()
			if !ok || home == p.site {
				continue
			}
			revs, ok := byHome[home]
			if !ok {
				revs = make(map[Topic]uint64)
				byHome[home] = revs
			}
			revs[topic] = p.retained[topic].rev
		}
		p.mu.Unlock()
		for home, revs := range byHome {
			m := proxyMsg{kind: "syncreq", site: p.site, from: p.site, revs: revs}
			_ = p.sendRaw(home, m, 16*len(revs), false)
		}
	}
}

// handleSyncReq answers an anti-entropy offer: any topic where the
// requester's revision lags this home's retained state is re-sent, and
// missing subscription filters are re-installed.
func (p *proxy) handleSyncReq(pm proxyMsg) {
	var replies []outMsg
	p.mu.Lock()
	for topic, known := range pm.revs {
		f, ok := p.remoteFilters[topic]
		if !ok {
			f = make(map[simnet.SiteID]int)
			p.remoteFilters[topic] = f
		}
		if f[pm.site] <= 0 {
			// The requester subscribes but the filter-install message
			// never survived the WAN: heal it.
			f[pm.site] = 1
		}
		if ret, ok := p.retained[topic]; ok && ret.rev > known {
			m := proxyMsg{kind: "syncpub", topic: topic, payload: ret.payload, rev: ret.rev, from: p.site}
			replies = append(replies, outMsg{site: pm.site, m: m, size: ret.size})
		}
	}
	p.mu.Unlock()
	for _, r := range replies {
		p.bus.resyncs.Inc()
		_ = p.sendRaw(r.site, r.m, r.size, false)
	}
}
