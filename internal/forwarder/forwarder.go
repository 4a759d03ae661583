// Package forwarder implements the Switchboard data-plane forwarder
// (Section 5): a cloud-agnostic proxy that chains VNF instances together.
// It applies hierarchical weighted load balancing (site-level traffic-
// engineering splits × per-instance weights), maintains per-connection
// flow affinity and symmetric return paths via a flow table, and strips/
// re-affixes labels around VNFs that do not understand them.
//
// The packet fast path is the pure function Process, so the same code is
// exercised by microbenchmarks (Figures 7 and 8), by the in-process
// simulated WAN (package simnet), and by the UDP daemon (cmd/sbforwarder).
//
// Three modes reproduce the Figure 7 ablation: ModeBridge forwards
// blindly like a plain bridge, ModeLabels adds label parsing and weighted
// next-hop selection but no per-flow state, and ModeAffinity is the full
// forwarder with the flow table.
package forwarder

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"switchboard/internal/flowtable"
	"switchboard/internal/labels"
	"switchboard/internal/metrics"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
)

// Mode selects the forwarding pipeline (Figure 7's three configurations).
type Mode int

// Forwarding modes.
const (
	// ModeBridge forwards every packet to a fixed peer, like the plain
	// OVS bridge baseline.
	ModeBridge Mode = iota + 1
	// ModeLabels parses labels and applies weighted load balancing per
	// packet, without flow affinity.
	ModeLabels
	// ModeAffinity is the full Switchboard forwarder: labels, weighted
	// load balancing, flow table with affinity and symmetric return.
	ModeAffinity
)

// HopKind classifies a load-balancing target.
type HopKind int

// Hop kinds.
const (
	// KindVNF is a VNF instance attached to this forwarder.
	KindVNF HopKind = iota + 1
	// KindForwarder is a peer forwarder (possibly at another site).
	KindForwarder
	// KindEdge is an edge instance (chain ingress or egress).
	KindEdge
)

// NextHop describes a registered target.
type NextHop struct {
	ID   flowtable.Hop
	Kind HopKind
	Addr simnet.Addr
	// LabelAware applies to VNF hops: when false the forwarder strips
	// labels before delivery and re-affixes Labels when the packet
	// returns from the instance (which therefore serves exactly one
	// label set, per Section 5.3).
	LabelAware bool
	Labels     labels.Stack
}

// WeightedHop pairs a registered hop with its load-balancing weight.
// Weights are the hierarchical product of the site-level TE split and the
// instance's published weight.
type WeightedHop struct {
	Hop    flowtable.Hop
	Weight float64
}

// RuleSpec is a load-balancing rule for one label stack: the local VNF
// instances this forwarder serves for the chain, the next hops toward the
// egress, and the previous hops toward the ingress.
type RuleSpec struct {
	LocalVNF []WeightedHop
	Next     []WeightedHop
	Prev     []WeightedHop
	// Chain names the chain this rule belongs to, used as the key of the
	// forwarder's per-chain metric series. Empty falls back to the
	// stack's decimal chain label.
	Chain string
}

// Stats are the forwarder's packet counters.
type Stats struct {
	Rx        uint64
	Tx        uint64
	Drops     uint64
	NewFlows  uint64
	RuleMiss  uint64
	Relabeled uint64
	// SendErrs counts packets the runner failed to hand to the network
	// (full receiver queue, detached peer). They are also included in
	// Drops, so chaos experiments see data-plane loss in one place.
	SendErrs uint64
	// RingDrops counts packets a RunnerPool dispatcher dropped at a full
	// per-core ring — the software analog of a NIC rx-ring overflow. Also
	// included in Drops.
	RingDrops uint64
}

type counters struct {
	rx, tx, drops, newFlows, ruleMiss, relabeled, sendErrs, ringDrops atomic.Uint64
}

// batchCounters accumulates stat deltas for one burst so the hot path
// pays at most one atomic add per counter per batch instead of one per
// packet.
type batchCounters struct {
	tx, drops, newFlows, ruleMiss, relabeled uint64
}

// chainBatch accumulates per-chain tx/drop deltas for the burst's
// currently-memoized rule, flushing one atomic add per counter when the
// rule switches or the burst ends — per-chain attribution therefore
// costs the hot path a branch and an integer increment per packet, no
// map lookups and no allocations.
type chainBatch struct {
	txC, dropC *metrics.Counter
	tx, drops  uint64
}

func (cb *chainBatch) flush() {
	if cb.tx > 0 && cb.txC != nil {
		cb.txC.Add(cb.tx)
	}
	if cb.drops > 0 && cb.dropC != nil {
		cb.dropC.Add(cb.drops)
	}
	cb.tx, cb.drops = 0, 0
}

// switchTo flushes the pending deltas and retargets the accumulator at
// r's per-chain counters (nil rule: deltas are discarded — the rule-miss
// path attributes its own drops).
func (cb *chainBatch) switchTo(r *rule) {
	cb.flush()
	if r != nil {
		cb.txC, cb.dropC = r.chainTx, r.chainDrops
	} else {
		cb.txC, cb.dropC = nil, nil
	}
}

func (f *Forwarder) flushCounters(c *batchCounters) {
	if c.tx > 0 {
		f.stats.tx.Add(c.tx)
	}
	if c.drops > 0 {
		f.stats.drops.Add(c.drops)
	}
	if c.newFlows > 0 {
		f.stats.newFlows.Add(c.newFlows)
	}
	if c.ruleMiss > 0 {
		f.stats.ruleMiss.Add(c.ruleMiss)
	}
	if c.relabeled > 0 {
		f.stats.relabeled.Add(c.relabeled)
	}
}

// picker is a lock-free weighted round-robin selector over a precomputed
// slot table.
type picker struct {
	slots []flowtable.Hop
	ctr   atomic.Uint64
}

func newPicker(hops []WeightedHop) *picker {
	if len(hops) == 0 {
		return nil
	}
	if len(hops) == 1 {
		// One target needs no weighting: a single slot, whatever the
		// weight (even zero or negative — an installed rule never has an
		// empty schedule).
		return &picker{slots: []flowtable.Hop{hops[0].Hop}}
	}
	const resolution = 64
	total := 0.0
	for _, h := range hops {
		if h.Weight > 0 && !math.IsInf(h.Weight, 1) {
			total += h.Weight
		}
	}
	var slots []flowtable.Hop
	if total > 0 {
		for _, h := range hops {
			if !(h.Weight > 0) || math.IsInf(h.Weight, 1) {
				continue
			}
			n := int(h.Weight/total*resolution + 0.5)
			if n < 1 {
				n = 1
			}
			for i := 0; i < n; i++ {
				slots = append(slots, h.Hop)
			}
		}
	}
	if len(slots) == 0 {
		// All weights zero, negative, or non-finite: fall back to equal
		// weighting so an installed rule never has an empty schedule.
		for _, h := range hops {
			slots = append(slots, h.Hop)
		}
	}
	if len(slots) == 1 {
		return &picker{slots: slots}
	}
	// Interleave slots so bursts spread across hops: stride permutation.
	out := make([]flowtable.Hop, len(slots))
	stride := len(slots)/2 + 1
	for gcd(stride, len(slots)) != 1 {
		stride++
	}
	for i := range slots {
		out[i] = slots[(i*stride)%len(slots)]
	}
	return &picker{slots: out}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (p *picker) pick() flowtable.Hop {
	if p == nil || len(p.slots) == 0 {
		return flowtable.None
	}
	i := p.ctr.Add(1)
	return p.slots[i%uint64(len(p.slots))]
}

type rule struct {
	local *picker
	next  *picker
	prev  *picker
	// localSet marks the hops in the local picker, so the fast path can
	// tell whether a packet entered from one of this rule's local
	// elements (VNF instance or edge instance) or from outside.
	localSet map[flowtable.Hop]bool
	// nextSet marks the hops in the next picker, so the fast path can
	// tell when a record's pinned next hop has been removed by a route
	// update (failover, scale-in) and must be re-picked.
	nextSet map[flowtable.Hop]bool
	// installedNs is when InstallRule stamped the rule (Unix
	// nanoseconds) — the control plane's "forwarder rule active" moment,
	// read by RuleInstalledAt for control-loop timelines. Stamped once
	// at install, off the packet path.
	installedNs int64
	// chainTx and chainDrops are the chain's dimensional counters
	// (forwarder.<name>.chain.<chain>.tx / .drops), resolved once at
	// install so the packet path reaches them without a map lookup.
	// Never nil after InstallRule.
	chainTx, chainDrops *metrics.Counter
}

// FlowStore is the forwarder's connection-table contract. The in-memory
// flowtable.Table is the default (New); the Local Switchboard deploys
// dht.Node (NewWithStore), the replicated distributed-hash-table
// variant of Section 5.3's forwarder fault tolerance, where flow records
// survive the forwarder that created them. On stores without
// LookupBatch the affinity path calls Lookup once per packet, so a
// Lookup of a pinned flow must not allocate; TestAffinityBatchZeroAlloc
// holds both stores to it.
type FlowStore interface {
	Insert(st labels.Stack, flow packet.FlowKey, rec flowtable.Record)
	Lookup(st labels.Stack, flow packet.FlowKey) (rec flowtable.Record, forward, ok bool)
	Remove(st labels.Stack, flow packet.FlowKey)
	Len() int
	Advance(keep uint32) int
}

// BatchFlowStore is an optional FlowStore extension: stores that resolve
// a whole burst of lookups at once, flowtable.Table with one lock per
// shard per burst. dht.Node does not implement it; the affinity path
// then calls Lookup per packet. The slices are the caller's BatchResult
// scratch, reused for the next burst, so an implementation must not
// retain them. Entries whose packet was dropped before the lookup carry
// the zero stack and flow.
type BatchFlowStore interface {
	LookupBatch(sts []labels.Stack, flows []packet.FlowKey, recs []flowtable.Record, forwards, oks []bool)
}

// OccupancyStore is an optional FlowStore extension: stores that report
// per-unit occupancy (per shard for flowtable.Table, per partition for
// flowtable.Partitioned). RegisterMetrics publishes the counts as
// flowpart gauges for diagnosing steering skew; stores that don't
// implement it (e.g. dht.Node) simply publish no occupancy series.
type OccupancyStore interface {
	Occupancy() []int
}

// HopRegistry assigns stable hop IDs by address. Forwarders that share a
// flow store (a scaled-out set over one DHT) must also share a registry:
// flow records store hop IDs, so the same address has to resolve to the
// same ID on every member or a record written by one member would be
// misinterpreted by another.
type HopRegistry struct {
	mu   sync.Mutex
	ids  map[simnet.Addr]flowtable.Hop
	next uint32
}

// NewHopRegistry returns an empty registry.
func NewHopRegistry() *HopRegistry {
	return &HopRegistry{ids: make(map[simnet.Addr]flowtable.Hop)}
}

// IDFor returns the stable ID for an address, allocating on first use.
func (r *HopRegistry) IDFor(a simnet.Addr) flowtable.Hop {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.ids[a]; ok {
		return id
	}
	r.next++
	id := flowtable.Hop(r.next)
	r.ids[a] = id
	return id
}

// snapshot is the forwarder's routing state as one immutable unit: the
// rule table, the hop registry, the bridge target, and the error-path
// chain-drop attribution map. The packet path reaches it with a single
// atomic load and never takes a lock (RCU-style reads); writers copy
// the current snapshot under the forwarder's writer mutex, replace the
// maps they change with modified copies, and publish it with one atomic
// store. A published snapshot and its maps are never mutated again, so a
// batch that loaded it mid-swap keeps a fully consistent view: every
// packet of one burst is processed against the same rule and hop tables.
type snapshot struct {
	hops   map[flowtable.Hop]NextHop
	byAddr map[simnet.Addr]flowtable.Hop
	// chainDropOf resolves a chain label to its drop counter for
	// error-path attribution (rule miss, send errors). Replaced wholesale
	// whenever the writer-side master map changes.
	chainDropOf map[uint32]*metrics.Counter
	bridgeTo    flowtable.Hop
	// rules is last, so the fields above share one cache line.
	rules ruleTable
}

// clone returns a copy that shares every map with s; a writer replaces
// each map it changes (rule shards through ruleTable.set) instead of
// modifying it.
func (s *snapshot) clone() *snapshot {
	c := *s
	return &c
}

// ruleShards is how many maps a rule table is split into.
const ruleShards = 64

// ruleTable maps label stacks to rules, split by chain label into
// ruleShards maps so a rule write copies one shard rather than every
// rule at the forwarder. Rules themselves are immutable after install.
type ruleTable [ruleShards]map[labels.Stack]*rule

func (t *ruleTable) get(st labels.Stack) *rule {
	return t[st.Chain%ruleShards][st]
}

// set replaces st's shard with a copy in which st maps to r, or holds no
// rule for st when r is nil.
func (t *ruleTable) set(st labels.Stack, r *rule) {
	i := st.Chain % ruleShards
	m := make(map[labels.Stack]*rule, len(t[i])+1)
	maps.Copy(m, t[i])
	if r != nil {
		m[st] = r
	} else {
		delete(m, st)
	}
	t[i] = m
}

func (t *ruleTable) len() int {
	n := 0
	for _, m := range t {
		n += len(m)
	}
	return n
}

// Forwarder is one Switchboard forwarder instance. The routing state is
// published as an atomically-swapped copy-on-write snapshot, so any
// number of runner cores can process batches concurrently without
// taking a single lock on the hot path.
type Forwarder struct {
	name  string
	mode  Mode
	table FlowStore

	// snap is the current routing snapshot; never nil. Readers load it
	// once per burst. Writers swap it under wmu.
	snap atomic.Pointer[snapshot]

	// wmu serializes writers (rule installs, hop registration, chain
	// counter resolution) and guards the writer-only fields below. It is
	// never taken on the packet path.
	wmu    sync.Mutex
	reg    *HopRegistry
	nextID uint32
	// chainTx and chainDrops are the per-chain keyed counter families,
	// set by RegisterMetrics (nil: per-chain counters still count,
	// unpublished). chainTxOf/chainDropOf are the writer-side master maps;
	// chainDropOf is republished into the snapshot whenever it changes.
	chainTx, chainDrops    *metrics.KeyedCounters
	chainTxOf, chainDropOf map[uint32]*metrics.Counter

	// migration is the at-most-one active flow-handoff gate (see
	// migration.go); nil almost always, checked with one atomic load per
	// burst on the affinity path.
	migration atomic.Pointer[Migration]

	stats counters
}

// New returns a forwarder with the given mode and flow-table shard count.
func New(name string, mode Mode, shards int) *Forwarder {
	return NewWithStore(name, mode, flowtable.New(shards))
}

// NewWithStore returns a forwarder using an externally provided flow
// store — e.g. a dht.Node shared by all forwarders at a site, so flow
// affinity survives forwarder failures and elastic scaling, or a
// flowtable.Partitioned so N runner cores never contend on shard locks.
func NewWithStore(name string, mode Mode, store FlowStore) *Forwarder {
	f := &Forwarder{
		name:        name,
		mode:        mode,
		table:       store,
		chainTxOf:   make(map[uint32]*metrics.Counter),
		chainDropOf: make(map[uint32]*metrics.Counter),
	}
	f.snap.Store(&snapshot{
		hops:        make(map[flowtable.Hop]NextHop),
		byAddr:      make(map[simnet.Addr]flowtable.Hop),
		chainDropOf: make(map[uint32]*metrics.Counter),
	})
	return f
}

// Name returns the forwarder's name.
func (f *Forwarder) Name() string { return f.name }

// Mode returns the forwarding mode.
func (f *Forwarder) Mode() Mode { return f.mode }

// UseHopRegistry makes subsequent AddHop calls draw IDs from a shared
// registry. Must be set before any hop is added; required whenever the
// forwarder shares its flow store with peers.
func (f *Forwarder) UseHopRegistry(r *HopRegistry) {
	f.wmu.Lock()
	f.reg = r
	f.wmu.Unlock()
}

// AddHop registers a target and returns its hop ID.
func (f *Forwarder) AddHop(nh NextHop) flowtable.Hop {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if f.reg != nil {
		nh.ID = f.reg.IDFor(nh.Addr)
	} else {
		f.nextID++
		nh.ID = flowtable.Hop(f.nextID)
	}
	s := f.snap.Load().clone()
	s.hops, s.byAddr = maps.Clone(s.hops), maps.Clone(s.byAddr)
	s.hops[nh.ID] = nh
	s.byAddr[nh.Addr] = nh.ID
	f.snap.Store(s)
	return nh.ID
}

// Hop returns a registered hop.
func (f *Forwarder) Hop(id flowtable.Hop) (NextHop, bool) {
	nh, ok := f.snap.Load().hops[id]
	return nh, ok
}

// HopByAddr resolves a source address to its hop ID (flowtable.None when
// unknown, e.g. a traffic generator).
func (f *Forwarder) HopByAddr(a simnet.Addr) flowtable.Hop {
	return f.snap.Load().byAddr[a]
}

// InstallRule sets the load-balancing rule for a label stack. Existing
// flows keep their table entries, so route updates only affect new
// connections (Section 5.3).
func (f *Forwarder) InstallRule(st labels.Stack, spec RuleSpec) {
	r := &rule{
		local:       newPicker(spec.LocalVNF),
		next:        newPicker(spec.Next),
		prev:        newPicker(spec.Prev),
		localSet:    make(map[flowtable.Hop]bool, len(spec.LocalVNF)),
		nextSet:     make(map[flowtable.Hop]bool, len(spec.Next)),
		installedNs: time.Now().UnixNano(),
	}
	for _, wh := range spec.LocalVNF {
		r.localSet[wh.Hop] = true
	}
	for _, wh := range spec.Next {
		r.nextSet[wh.Hop] = true
	}
	f.wmu.Lock()
	defer f.wmu.Unlock()
	var changed bool
	r.chainTx, r.chainDrops, changed = f.chainCountersWLocked(st.Chain, spec.Chain)
	s := f.snap.Load().clone()
	s.rules.set(st, r)
	if changed {
		s.chainDropOf = maps.Clone(f.chainDropOf)
	}
	f.snap.Store(s)
}

// chainCountersWLocked resolves (creating on first use) the per-chain
// tx/drops counters for a chain label, keyed by the chain's name (or
// the decimal label when unnamed). Reinstalls reuse the same counters,
// so counts stay cumulative across route updates. Caller holds f.wmu
// and, when changed reports that the label's drop counter is new, must
// republish chainDropOf into the snapshot (the master maps are
// writer-side; published snapshots carry immutable clones).
func (f *Forwarder) chainCountersWLocked(label uint32, name string) (tx, drops *metrics.Counter, changed bool) {
	if f.chainTx != nil {
		if name == "" {
			name = strconv.FormatUint(uint64(label), 10)
		}
		tx, drops = f.chainTx.Get(name), f.chainDrops.Get(name)
	} else if tx = f.chainTxOf[label]; tx == nil {
		tx, drops = &metrics.Counter{}, &metrics.Counter{}
	} else {
		drops = f.chainDropOf[label]
	}
	changed = f.chainDropOf[label] != drops
	f.chainTxOf[label], f.chainDropOf[label] = tx, drops
	return tx, drops, changed
}

// ForgetChain garbage-collects a deleted chain's per-chain tx/drops
// counters: keyed instances are unregistered from the metrics registry
// and the label-indexed caches dropped (typically via
// slo.ChainSLO.Release when the chain is forgotten). name follows
// chainCountersWLocked's keying (chain name, or decimal label).
func (f *Forwarder) ForgetChain(label uint32, name string) {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	_, counted := f.chainDropOf[label]
	delete(f.chainTxOf, label)
	delete(f.chainDropOf, label)
	if f.chainTx != nil {
		if name == "" {
			name = strconv.FormatUint(uint64(label), 10)
		}
		f.chainTx.Forget(name)
		f.chainDrops.Forget(name)
	}
	if counted {
		s := f.snap.Load().clone()
		s.chainDropOf = maps.Clone(f.chainDropOf)
		f.snap.Store(s)
	}
}

// ChainCounters returns load functions over a chain's per-chain tx and
// drops counters, creating them if no rule for the chain has been
// installed yet — the drop source the SLO evaluator diffs per interval.
func (f *Forwarder) ChainCounters(label uint32, name string) (tx, drops func() uint64) {
	f.wmu.Lock()
	txC, dropC, changed := f.chainCountersWLocked(label, name)
	if changed {
		s := f.snap.Load().clone()
		s.chainDropOf = maps.Clone(f.chainDropOf)
		f.snap.Store(s)
	}
	f.wmu.Unlock()
	return txC.Load, dropC.Load
}

// RuleInstalledAt returns when the current rule for a label stack was
// installed — the control-plane "rule active at the forwarder" instant
// the failover timeline correlates against. ok is false when no rule is
// installed.
func (f *Forwarder) RuleInstalledAt(st labels.Stack) (at time.Time, ok bool) {
	r := f.snap.Load().rules.get(st)
	if r == nil {
		return time.Time{}, false
	}
	return time.Unix(0, r.installedNs), true
}

// rulesLen returns the number of installed rules (metrics gauge).
func (f *Forwarder) rulesLen() int {
	return f.snap.Load().rules.len()
}

// RuleInfo reports the installed rule's picker sizes for a label stack:
// the number of weighted slots for local VNFs, next hops, and previous
// hops. ok is false when no rule is installed.
func (f *Forwarder) RuleInfo(st labels.Stack) (local, next, prev int, ok bool) {
	r := f.snap.Load().rules.get(st)
	if r == nil {
		return 0, 0, 0, false
	}
	size := func(p *picker) int {
		if p == nil {
			return 0
		}
		return len(p.slots)
	}
	return size(r.local), size(r.next), size(r.prev), true
}

// RuleAddrs reports the distinct addresses each picker of the installed
// rule for a label stack can choose: local elements, next hops, and
// previous hops. ok is false when no rule is installed.
func (f *Forwarder) RuleAddrs(st labels.Stack) (local, next, prev []simnet.Addr, ok bool) {
	s := f.snap.Load()
	r := s.rules.get(st)
	if r == nil {
		return nil, nil, nil, false
	}
	addrs := func(p *picker) []simnet.Addr {
		if p == nil {
			return nil
		}
		var out []simnet.Addr
		for _, h := range p.slots {
			if a := s.hops[h].Addr; !slices.Contains(out, a) {
				out = append(out, a)
			}
		}
		return out
	}
	return addrs(r.local), addrs(r.next), addrs(r.prev), true
}

// RuleNextHopCount returns the number of distinct next hops in the
// installed rule for a label stack (0 when no rule exists). Experiments
// use it to detect that an updated multi-site route has propagated.
func (f *Forwarder) RuleNextHopCount(st labels.Stack) int {
	r := f.snap.Load().rules.get(st)
	if r == nil || r.next == nil {
		return 0
	}
	distinct := make(map[flowtable.Hop]bool, 4)
	for _, h := range r.next.slots {
		distinct[h] = true
	}
	return len(distinct)
}

// RemoveRule deletes the rule for a label stack. Removing a rule the
// forwarder does not hold copies nothing and publishes nothing.
func (f *Forwarder) RemoveRule(st labels.Stack) {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	s := f.snap.Load()
	if s.rules.get(st) == nil {
		return
	}
	s = s.clone()
	s.rules.set(st, nil)
	f.snap.Store(s)
}

// SetBridgeTarget configures the fixed peer used in ModeBridge.
func (f *Forwarder) SetBridgeTarget(h flowtable.Hop) {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	s := f.snap.Load().clone()
	s.bridgeTo = h
	f.snap.Store(s)
}

// FlowCount returns the number of tracked connections.
func (f *Forwarder) FlowCount() int { return f.table.Len() }

// AdvanceEpoch ages the flow table (see flowtable.Table.Advance).
func (f *Forwarder) AdvanceEpoch(keep uint32) int { return f.table.Advance(keep) }

// Stats returns a snapshot of the packet counters.
func (f *Forwarder) Stats() Stats {
	return Stats{
		Rx:        f.stats.rx.Load(),
		Tx:        f.stats.tx.Load(),
		Drops:     f.stats.drops.Load(),
		NewFlows:  f.stats.newFlows.Load(),
		RuleMiss:  f.stats.ruleMiss.Load(),
		Relabeled: f.stats.relabeled.Load(),
		SendErrs:  f.stats.sendErrs.Load(),
		RingDrops: f.stats.ringDrops.Load(),
	}
}

// countRingDrops records packets a RunnerPool dispatcher lost at a full
// per-core ring; they count as data-plane drops like send errors.
func (f *Forwarder) countRingDrops(n uint64) {
	if n > 0 {
		f.stats.ringDrops.Add(n)
		f.stats.drops.Add(n)
	}
}

// countSendErrors records packets that could not be handed to the
// network after processing (e.g. a full receiver queue); they count as
// data-plane drops so loss is visible in Stats.
func (f *Forwarder) countSendErrors(n uint64) {
	if n > 0 {
		f.stats.sendErrs.Add(n)
		f.stats.drops.Add(n)
	}
}

// countChainSendErrs attributes a send failure's packets to their
// chain's drop counter (send failures are an error path, so the map
// lookup costs nothing on the fast path). Chains never seen by
// InstallRule are left unattributed.
func (f *Forwarder) countChainSendErrs(chain uint32, n uint64) {
	if c := f.snap.Load().chainDropOf[chain]; c != nil {
		c.Add(n)
	}
}

// Errors returned by Process.
var (
	ErrNoRule     = errors.New("forwarder: no rule for labels")
	ErrNoNextHop  = errors.New("forwarder: no next hop")
	ErrUnlabeled  = errors.New("forwarder: unlabeled packet from unknown source")
	ErrUnknownHop = errors.New("forwarder: unknown hop id")
)

// Process runs one packet through the forwarding pipeline and returns
// the hop the packet must be sent to. from is the hop the packet arrived
// from (flowtable.None for external sources such as traffic generators).
// Process may mutate the packet's label state (strip/re-affix). It is a
// thin wrapper over the batch path: a burst of one.
func (f *Forwarder) Process(p *packet.Packet, from flowtable.Hop) (NextHop, error) {
	var (
		pkts  = [1]*packet.Packet{p}
		froms = [1]flowtable.Hop{from}
		hops  [1]NextHop
		errs  [1]error
		aff   affinityScratch
	)
	f.processBatch(pkts[:], froms[:], hops[:], errs[:], &aff)
	return hops[0], errs[0]
}

// BatchResult holds per-entry ProcessBatch outcomes, and the scratch the
// affinity path needs per burst. Reuse one across calls to keep the hot
// loop allocation-free; ProcessBatch resizes it.
type BatchResult struct {
	// Hops[i] is where pkts[i] must be sent; valid iff Errs[i] == nil.
	Hops []NextHop
	// Errs[i] is the per-packet processing error (dropped packet).
	Errs []error

	aff affinityScratch
}

// affinityScratch is the affinity path's per-entry working state. It
// lives in the caller's BatchResult rather than on the stack because
// the flow-store interface call makes every slice handed to it escape.
type affinityScratch struct {
	rules   []*rule
	sts     []labels.Stack
	flows   []packet.FlowKey
	recs    []flowtable.Record
	fwds    []bool
	oks     []bool
	targets []flowtable.Hop
	// pending lists the connections first seen in this burst.
	pending []pendingFlow
}

// pendingFlow is a connection pinned earlier in the same burst.
type pendingFlow struct {
	st     labels.Stack
	canon  packet.FlowKey
	fwdCan bool
	rec    flowtable.Record
}

func (res *BatchResult) resize(n int) {
	if cap(res.Hops) < n {
		res.Hops = make([]NextHop, n)
		res.Errs = make([]error, n)
	}
	res.Hops = res.Hops[:n]
	res.Errs = res.Errs[:n]
	clear(res.Hops)
	clear(res.Errs)
}

// resize readies the scratch for a burst of n entries. Nothing needs
// clearing: the affinity path writes each entry before reading it.
func (a *affinityScratch) resize(n int) {
	if cap(a.rules) < n {
		a.rules = make([]*rule, n)
		a.sts = make([]labels.Stack, n)
		a.flows = make([]packet.FlowKey, n)
		a.recs = make([]flowtable.Record, n)
		a.fwds = make([]bool, n)
		a.oks = make([]bool, n)
		a.targets = make([]flowtable.Hop, n)
	}
	a.rules, a.sts, a.flows = a.rules[:n], a.sts[:n], a.flows[:n]
	a.recs, a.fwds, a.oks, a.targets = a.recs[:n], a.fwds[:n], a.oks[:n], a.targets[:n]
	a.pending = a.pending[:0]
}

// ProcessBatch runs a burst of packets through the forwarding pipeline.
// froms[i] is the hop pkts[i] arrived from; per-entry outcomes land in
// res. Relative to N calls to Process it produces identical decisions
// and counters (pickers advance in entry order, first-packet flow
// pinning sees earlier entries of the same burst) while amortizing rule
// resolution, flow-table shard locking, and counter updates across the
// burst — the software analog of DPDK burst processing. The whole burst
// is processed against one routing snapshot loaded at entry: a rule
// install or removal racing the batch either applies to every packet of
// the burst or to none, never to a prefix. Safe for concurrent use from
// any number of runner cores.
func (f *Forwarder) ProcessBatch(pkts []*packet.Packet, froms []flowtable.Hop, res *BatchResult) {
	res.resize(len(pkts))
	f.processBatch(pkts, froms, res.Hops, res.Errs, &res.aff)
}

func (f *Forwarder) processBatch(pkts []*packet.Packet, froms []flowtable.Hop, hops []NextHop, errs []error, aff *affinityScratch) {
	n := len(pkts)
	if n == 0 {
		return
	}
	f.stats.rx.Add(uint64(n))
	s := f.snap.Load() // one consistent snapshot for the whole burst
	var c batchCounters
	switch f.mode {
	case ModeBridge:
		f.bridgeBatch(s, hops, errs, &c)
	case ModeLabels:
		f.labelsBatch(s, pkts, froms, hops, errs, &c)
	default:
		f.affinityBatch(s, pkts, froms, hops, errs, aff, &c)
	}
	f.flushCounters(&c)
}

func (f *Forwarder) bridgeBatch(s *snapshot, hops []NextHop, errs []error, c *batchCounters) {
	nh, ok := s.hops[s.bridgeTo]
	if !ok {
		c.drops += uint64(len(hops))
		for i := range errs {
			errs[i] = ErrNoNextHop
		}
		return
	}
	c.tx += uint64(len(hops))
	for i := range hops {
		hops[i] = nh
	}
}

// relabel re-affixes labels on a packet returning from a label-unaware
// VNF instance, using the instance's label association. Returns false
// when the packet is unlabeled and cannot be relabeled.
func (s *snapshot) relabel(p *packet.Packet, from flowtable.Hop, c *batchCounters) bool {
	if p.Labeled {
		return true
	}
	src, ok := s.hops[from]
	if !ok || src.Kind != KindVNF || src.LabelAware {
		return false
	}
	p.Labels = src.Labels
	p.Labeled = true
	c.relabeled++
	return true
}

// emit resolves the chosen target to a registered hop, handling label
// stripping for label-unaware VNFs.
func (s *snapshot) emit(p *packet.Packet, target flowtable.Hop, c *batchCounters) (NextHop, error) {
	if target == flowtable.None {
		c.drops++
		return NextHop{}, ErrNoNextHop
	}
	nh, ok := s.hops[target]
	if !ok {
		c.drops++
		return NextHop{}, fmt.Errorf("%w: %d", ErrUnknownHop, target)
	}
	if nh.Kind == KindVNF && !nh.LabelAware {
		p.Labeled = false
	} else {
		p.Labeled = true
	}
	c.tx++
	return nh, nil
}

func (f *Forwarder) labelsBatch(s *snapshot, pkts []*packet.Packet, froms []flowtable.Hop, hops []NextHop, errs []error, c *batchCounters) {
	// The snapshot covers the whole burst (label re-affixing, rule
	// resolution and hop emission all read from it), with the rule for
	// repeated stacks memoized — bursts overwhelmingly share one stack.
	var (
		lastSt   labels.Stack
		lastRule *rule
		haveRule bool
		cb       chainBatch
	)
	for i, p := range pkts {
		from := froms[i]
		if !s.relabel(p, from, c) {
			c.drops++
			errs[i] = ErrUnlabeled
			continue
		}
		if !haveRule || p.Labels != lastSt {
			lastRule, lastSt, haveRule = s.rules.get(p.Labels), p.Labels, true
			cb.switchTo(lastRule)
		}
		r := lastRule
		if r == nil {
			c.ruleMiss++
			c.drops++
			if dc := s.chainDropOf[p.Labels.Chain]; dc != nil {
				dc.Inc()
			}
			errs[i] = fmt.Errorf("%w: %+v", ErrNoRule, p.Labels)
			continue
		}
		var target flowtable.Hop
		if !r.localSet[from] && r.local != nil {
			target = r.local.pick()
		} else {
			target = r.next.pick()
		}
		hops[i], errs[i] = s.emit(p, target, c)
		if errs[i] != nil {
			cb.drops++
		} else {
			cb.tx++
		}
	}
	cb.flush()
}

func (f *Forwarder) affinityBatch(s *snapshot, pkts []*packet.Packet, froms []flowtable.Hop, hops []NextHop, errs []error, a *affinityScratch, c *batchCounters) {
	a.resize(len(pkts))
	rules, sts, flows := a.rules, a.sts, a.flows
	recs, fwds, oks, targets := a.recs, a.fwds, a.oks, a.targets

	// Phase 1: re-affix labels and resolve each entry's rule against the
	// burst's snapshot (memoizing repeated stacks).
	var (
		lastSt   labels.Stack
		lastRule *rule
		haveRule bool
	)
	for i, p := range pkts {
		// A dropped entry still goes to a batch lookup: give it the zero
		// key, which no connection has, rather than the last burst's.
		sts[i], flows[i] = labels.Stack{}, packet.FlowKey{}
		if !s.relabel(p, froms[i], c) {
			c.drops++
			errs[i] = ErrUnlabeled
			rules[i] = nil
			continue
		}
		if !haveRule || p.Labels != lastSt {
			lastRule, lastSt, haveRule = s.rules.get(p.Labels), p.Labels, true
		}
		rules[i] = lastRule
		if lastRule == nil {
			c.ruleMiss++
			c.drops++
			if dc := s.chainDropOf[p.Labels.Chain]; dc != nil {
				dc.Inc()
			}
			errs[i] = fmt.Errorf("%w: %+v", ErrNoRule, p.Labels)
			continue
		}
		sts[i] = p.Labels
		flows[i] = p.Key
	}

	// Phase 2: flow-table lookups for the burst, shard-grouped when the
	// store supports it (one shard lock per shard per burst).
	if bs, ok := f.table.(BatchFlowStore); ok {
		bs.LookupBatch(sts, flows, recs, fwds, oks)
	} else {
		for i := range pkts {
			if rules[i] == nil {
				continue
			}
			recs[i], fwds[i], oks[i] = f.table.Lookup(sts[i], flows[i])
		}
	}

	// Phase 3: resolve misses in arrival order. First packet of a
	// connection makes all load-balancing decisions and pins them (flow
	// affinity); when the packet entered from one of the rule's local
	// elements that element is the pinned local hop, otherwise one is
	// picked by weight. The previous hop is whoever delivered the packet
	// (symmetric return), falling back to the rule's previous-hop picker
	// for unknown sources. Later packets of the same new connection
	// within this burst reuse the pinned record instead of re-picking.
	mig := f.migration.Load()
	for i, p := range pkts {
		r := rules[i]
		if r == nil {
			continue
		}
		from := froms[i]
		rec, forward := recs[i], fwds[i]
		if !oks[i] {
			canon, same := p.Key.Canonical()
			dup := false
			for _, pe := range a.pending {
				if pe.st == p.Labels && pe.canon == canon {
					rec = pe.rec
					forward = same == pe.fwdCan
					dup = true
					break
				}
			}
			if !dup {
				rec = flowtable.Record{Next: r.next.pick(), Prev: from}
				if r.localSet[from] {
					rec.VNF = from
					rec.Prev = r.prev.pick()
				} else {
					if r.local != nil {
						rec.VNF = r.local.pick()
					}
					if rec.Prev == flowtable.None {
						rec.Prev = r.prev.pick()
					}
				}
				forward = true
				f.table.Insert(p.Labels, p.Key, rec)
				c.newFlows++
				a.pending = append(a.pending, pendingFlow{st: p.Labels, canon: canon, fwdCan: same, rec: rec})
			}
		} else if rec.Next != flowtable.None && !r.nextSet[rec.Next] {
			// Self-heal a dangling next-hop pin: a failover reroute can
			// remove the downstream forwarder a record was pinned to from
			// the rule (dead site). Route updates deliberately leave
			// existing records alone (Section 5.3), so the repair happens
			// lazily, the first time a packet hits the stale record.
			// Re-picking a next hop is safe — the downstream site's shared
			// flow table still resolves the same pinned instance — whereas
			// a local-element pin is never healed: moving a stateful flow
			// to another instance without a state handoff would break it,
			// which is exactly what live migration exists for. Without
			// this, flows whose records name a blacked-out site's
			// forwarders would black-hole forever.
			rec.Next = r.next.pick()
			f.table.Insert(p.Labels, p.Key, rec)
		}
		// Route by position: a packet that did not just return from one
		// of the rule's local elements is entering this forwarder, so it
		// is handed to the connection's pinned element (same instance in
		// both directions — flow affinity). A packet returning from any
		// local element moves along the chain: toward the egress when
		// travelling forward, toward the ingress otherwise. The returning
		// element may differ from the pinned one when a live migration
		// repins the flow while packets are still draining out of the old
		// instance; those drained packets were already processed once and
		// must not be re-dispatched into the new instance.
		switch {
		case rec.VNF != flowtable.None && from != rec.VNF && !r.localSet[from]:
			targets[i] = rec.VNF
		case forward:
			targets[i] = rec.Next
		default:
			targets[i] = rec.Prev
		}
		// The flow's steering annotation travels on every packet (class
		// bits on the wire); AnnMigrated after a live handoff.
		p.Ann = rec.Ann
		if mig != nil {
			if err := mig.gateCheck(p, sts[i], targets[i], from); err != nil {
				errs[i] = err
				if errors.Is(err, ErrMigrationOverflow) {
					c.drops++
				}
				rules[i] = nil // phase 4 skips gated entries
			}
		}
	}

	// Phase 4: emit against the same snapshot, attributing per-chain
	// deltas across memoized rule runs.
	var (
		cb    chainBatch
		lastR *rule
	)
	for i := range pkts {
		if rules[i] == nil {
			continue
		}
		if rules[i] != lastR {
			lastR = rules[i]
			cb.switchTo(lastR)
		}
		hops[i], errs[i] = s.emit(pkts[i], targets[i], c)
		if errs[i] != nil {
			cb.drops++
		} else {
			cb.tx++
		}
	}
	cb.flush()
}
