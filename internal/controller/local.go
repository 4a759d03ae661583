package controller

import (
	"fmt"
	"sync"
	"sync/atomic"

	"switchboard/internal/bus"
	"switchboard/internal/dht"
	"switchboard/internal/edge"
	"switchboard/internal/flowtable"
	"switchboard/internal/forwarder"
	"switchboard/internal/labels"
	"switchboard/internal/metrics"
	"switchboard/internal/obs"
	"switchboard/internal/simnet"
)

// edgeRole is the pseudo-VNF name under which edge-serving forwarders
// publish themselves.
const edgeRole = "edge"

// LocalSwitchboard manages Switchboard's data plane at one site: it
// creates forwarders (one per VNF service hosted at the site, plus one
// serving edge instances), subscribes to the message-bus topics relevant
// to chains that traverse the site, computes hierarchical load-balancing
// rules (site-level TE weights × instance weights), and installs them at
// its forwarders (Figure 4, step 5; Figure 6).
type LocalSwitchboard struct {
	site    simnet.SiteID
	gsbSite simnet.SiteID
	net     *simnet.Network
	bus     *bus.Bus

	mu         sync.Mutex
	forwarders map[string]*roleRuntime
	edgeInst   *edge.Instance
	edgeStop   func()
	chains     map[ChainID]*chainState
	tl         *Timeline
	rec        *obs.Recorder
	routesSub  *bus.Subscription
	heartbeats bool
	wg         sync.WaitGroup
	closed     bool

	// One apply loop (applyLoop) applies route records, runs
	// ScaleForwarders' steps and reinstalls rules, so installs never race
	// each other. Bus callbacks only record their publication here, under
	// mu, and wake it. Lock order: a subscription's delivery lock, then
	// mu; no bus call is made while mu is held.
	steps []func()         // route publications and scale steps, in order
	dirty map[ChainID]bool // chains whose dependency lists changed
	wake  chan struct{}    // capacity 1: a pending wake-up
	stop  chan struct{}    // closed by Close; also stops heartbeats
	// applied is the last route table applied (sorted by ChainID, as the
	// Global Switchboard publishes it); only the apply loop touches it.
	applied []*RouteRecord

	// routesApplied counts route records applied (new or changed chains).
	routesApplied atomic.Uint64

	// runnerBeat, when set (SetRunnerBeat), is installed as the Beat
	// callback on every forwarder runner this LS creates afterwards.
	runnerBeat func()
}

// RegisterMetrics publishes the Local Switchboard's counters into a
// metrics registry under "ls.<site>.*":
//
//	ls.<site>.routes_applied route records applied (new or changed chains)
//
// It also pre-creates ls.rule_install_ms, the histogram the apply-route
// spans fold into (shared across sites — create-or-get returns the same
// instance for every LS on one registry).
func (ls *LocalSwitchboard) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("ls."+string(ls.site)+".routes_applied", ls.routesApplied.Load)
	r.Histogram("ls.rule_install_ms")
}

// SetRecorder attaches a control-plane span recorder: each accepted
// route record is stamped as an apply-route span, parented (via the
// record's SpanID) to the Global Switchboard operation that published
// it. A nil recorder (the default) costs nothing.
func (ls *LocalSwitchboard) SetRecorder(rec *obs.Recorder) {
	ls.mu.Lock()
	ls.rec = rec
	ls.mu.Unlock()
}

func (ls *LocalSwitchboard) recorder() *obs.Recorder {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.rec
}

// SetRunnerBeat installs a health-watchdog heartbeat on every forwarder
// runner this LS creates from now on (existing runners are unaffected,
// so call it before chains install rules). Runners beat per wakeup and
// block while idle — see forwarder.Runner.Beat for the stall-threshold
// implications.
func (ls *LocalSwitchboard) SetRunnerBeat(beat func()) {
	ls.mu.Lock()
	ls.runnerBeat = beat
	ls.mu.Unlock()
}

type fwdRuntime struct {
	f    *forwarder.Forwarder
	ep   *simnet.Endpoint
	stop func()
}

// roleRuntime is the (possibly scaled-out) forwarder set serving one
// role at this site. All members share one replicated flow table (the
// Section 5.3 DHT), so flow affinity holds regardless of which member a
// packet lands on and survives member failure.
type roleRuntime struct {
	role    string
	cluster *dht.Cluster
	reg     *forwarder.HopRegistry
	fwds    []*fwdRuntime
}

type chainState struct {
	rec *RouteRecord
	// deps are the subscribed inputs of the chain's rules at this site, a
	// handful per chain; only the apply loop touches the slice.
	deps []*dep
	subs []*bus.Subscription
}

// dep is one subscribed input of a chain's rules.
type dep struct {
	key depKey
	// infos is the list rules were last computed from; only the apply
	// loop touches it. pending is the newest list delivered since, valid
	// when fresh; both under mu.
	infos   []InstanceInfo
	pending []InstanceInfo
	fresh   bool
}

// infos returns the list the chain's rules are computed from for k, nil
// before the first delivery.
func (cs *chainState) infos(k depKey) []InstanceInfo {
	for _, d := range cs.deps {
		if d.key == k {
			return d.infos
		}
	}
	return nil
}

// depKey names one input of a chain's rules at a site: the forwarders
// serving role at site or, with instances set, the instances of VNF
// role at site. Rules are computed from keys; the bus topic name is
// formatted only to subscribe or publish.
type depKey struct {
	role      string
	site      simnet.SiteID
	instances bool
}

// topic returns the chain's bus topic for the dependency.
func (k depKey) topic(st labels.Stack) bus.Topic {
	if k.instances {
		return instancesTopic(st, k.role, k.site)
	}
	return forwardersTopic(st, k.role, k.site)
}

// NewLocalSwitchboard creates the Local Switchboard for a site and
// subscribes it to the global route feed homed at gsbSite.
func NewLocalSwitchboard(net *simnet.Network, b *bus.Bus, site, gsbSite simnet.SiteID) (*LocalSwitchboard, error) {
	ls := &LocalSwitchboard{
		site:       site,
		gsbSite:    gsbSite,
		net:        net,
		bus:        b,
		forwarders: make(map[string]*roleRuntime),
		chains:     make(map[ChainID]*chainState),
		dirty:      make(map[ChainID]bool),
		wake:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
	}
	sub, err := b.SubscribeFunc(site, routesTopic(gsbSite), func(pub bus.Publication) {
		if table, ok := pub.Payload.([]*RouteRecord); ok {
			ls.enqueue(func() { ls.applyTable(table) })
		}
	})
	if err != nil {
		return nil, fmt.Errorf("controller: local SB at %s subscribing to routes: %w", site, err)
	}
	ls.routesSub = sub
	ls.wg.Add(1)
	go ls.applyLoop()
	return ls, nil
}

// enqueue hands a step to the apply loop; it reports false, dropping the
// step, once the Local Switchboard is closed.
func (ls *LocalSwitchboard) enqueue(step func()) bool {
	ls.mu.Lock()
	ok := !ls.closed
	if ok {
		ls.steps = append(ls.steps, step)
	}
	ls.mu.Unlock()
	ls.poke()
	return ok
}

// poke wakes the apply loop without blocking.
func (ls *LocalSwitchboard) poke() {
	select {
	case ls.wake <- struct{}{}:
	default:
	}
}

// applyLoop is the only caller of onRoute, the scale steps and reinstall.
// Each round runs the queued steps in arrival order, then reinstalls
// every chain still marked dirty; reinstall clears the mark before it
// reads the chain's state, so a publication that lands during an install
// wakes one more round.
func (ls *LocalSwitchboard) applyLoop() {
	defer ls.wg.Done()
	for {
		select {
		case <-ls.wake:
		case <-ls.stop:
		}
		ls.mu.Lock()
		steps, closed := ls.steps, ls.closed
		ls.steps = nil
		ls.mu.Unlock()
		for _, step := range steps {
			step()
		}
		if closed {
			return
		}
		ls.mu.Lock()
		dirty := make([]ChainID, 0, len(ls.dirty))
		for id := range ls.dirty {
			dirty = append(dirty, id)
		}
		ls.mu.Unlock()
		for _, id := range dirty {
			ls.reinstall(id)
		}
	}
}

// SetTimeline attaches a timeline for responsiveness experiments.
func (ls *LocalSwitchboard) SetTimeline(tl *Timeline) {
	ls.mu.Lock()
	ls.tl = tl
	ls.mu.Unlock()
}

// Site returns the site this Local Switchboard manages.
func (ls *LocalSwitchboard) Site() simnet.SiteID { return ls.site }

// Forwarder returns (creating on demand) the forwarder serving the given
// role: a VNF service name, or edgeRole for edge instances.
func (ls *LocalSwitchboard) Forwarder(role string) (*forwarder.Forwarder, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	rr, err := ls.roleLocked(role)
	if err != nil {
		return nil, err
	}
	return rr.fwds[0].f, nil
}

// roleLocked returns (creating on demand) the role's forwarder set.
func (ls *LocalSwitchboard) roleLocked(role string) (*roleRuntime, error) {
	if rr, ok := ls.forwarders[role]; ok {
		return rr, nil
	}
	if ls.closed {
		return nil, fmt.Errorf("controller: local SB at %s closed", ls.site)
	}
	rr := &roleRuntime{role: role, cluster: dht.NewCluster(2), reg: forwarder.NewHopRegistry()}
	ls.forwarders[role] = rr
	if err := ls.growRoleLocked(rr, 1); err != nil {
		delete(ls.forwarders, role)
		return nil, err
	}
	return rr, nil
}

// growRoleLocked scales a role's forwarder set out to n members, each
// joined to the role's shared flow-table cluster.
func (ls *LocalSwitchboard) growRoleLocked(rr *roleRuntime, n int) error {
	for len(rr.fwds) < n {
		host := "fwd-" + rr.role
		if len(rr.fwds) > 0 {
			host = fmt.Sprintf("fwd-%s-%d", rr.role, len(rr.fwds)+1)
		}
		ep, err := ls.net.Attach(simnet.Addr{Site: ls.site, Host: host}, 4096)
		if err != nil {
			return fmt.Errorf("controller: attaching forwarder %s at %s: %w", host, ls.site, err)
		}
		store, err := rr.cluster.Join(host)
		if err != nil {
			ls.net.Detach(ep.Addr())
			return err
		}
		f := forwarder.NewWithStore(fmt.Sprintf("%s/%s", ls.site, host), forwarder.ModeAffinity, store)
		// Members share flow records, so hop IDs must be address-stable
		// across the whole set.
		f.UseHopRegistry(rr.reg)
		r := &forwarder.Runner{F: f, EP: ep, Beat: ls.runnerBeat}
		stop := r.Start()
		rr.fwds = append(rr.fwds, &fwdRuntime{f: f, ep: ep, stop: stop})
	}
	return nil
}

// ForwarderAddr returns the address of a role's forwarder, creating it on
// demand.
func (ls *LocalSwitchboard) ForwarderAddr(role string) (simnet.Addr, error) {
	if _, err := ls.Forwarder(role); err != nil {
		return simnet.Addr{}, err
	}
	return simnet.Addr{Site: ls.site, Host: "fwd-" + role}, nil
}

// roleForwarders returns the role's member forwarders, creating the role
// with one member on demand when create is set.
func (ls *LocalSwitchboard) roleForwarders(role string, create bool) []*fwdRuntime {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	rr, ok := ls.forwarders[role]
	if !ok && create {
		rr, _ = ls.roleLocked(role)
	}
	if rr == nil {
		return nil
	}
	return append([]*fwdRuntime(nil), rr.fwds...)
}

// publishRole announces the role's forwarder set on the chain's topic.
func (ls *LocalSwitchboard) publishRole(st labels.Stack, role string) {
	fwds := ls.roleForwarders(role, true)
	if len(fwds) == 0 {
		return
	}
	infos := make([]InstanceInfo, 0, len(fwds))
	for _, rt := range fwds {
		infos = append(infos, InstanceInfo{Addr: rt.ep.Addr(), Weight: 1})
	}
	_ = ls.bus.Publish(ls.site, forwardersTopic(st, role, ls.site), infos, 64*len(infos))
}

// ScaleForwarders grows a role's forwarder set to n members (Section
// 5.1: "the Local Switchboard scales the number of forwarders
// elastically"). New members share the role's replicated flow table, so
// existing connections keep their affinity no matter which member
// receives them. The updated set is re-announced for every chain the
// role serves, and rules are installed on the new members.
//
// n must be positive (a *ScaleError is returned otherwise; the set
// never shrinks — scale-in retires VNF instances, not forwarders). The
// grow/publish/reinstall step runs on the apply loop, so it never
// interleaves with another install; ScaleForwarders waits for it.
func (ls *LocalSwitchboard) ScaleForwarders(role string, n int) error {
	if n <= 0 {
		return &ScaleError{Site: ls.site, Role: role, N: n, Reason: "forwarder count must be positive"}
	}
	done := make(chan error, 1)
	step := func() { done <- ls.scaleForwarders(role, n) }
	if !ls.enqueue(step) {
		step() // closed: the step fails fast
	}
	return <-done
}

// scaleForwarders is ScaleForwarders' step on the apply loop.
func (ls *LocalSwitchboard) scaleForwarders(role string, n int) error {
	ls.mu.Lock()
	if ls.closed {
		ls.mu.Unlock()
		return &ScaleError{Site: ls.site, Role: role, N: n, Reason: "local switchboard closed"}
	}
	rr, err := ls.roleLocked(role)
	if err == nil {
		err = ls.growRoleLocked(rr, n)
	}
	recs := make([]*RouteRecord, 0, len(ls.chains))
	for _, cs := range ls.chains {
		recs = append(recs, cs.rec)
	}
	ls.mu.Unlock()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		ls.publishRole(labels.Stack{Chain: rec.ChainLabel, Egress: rec.EgressLabel}, role)
		ls.reinstall(rec.Chain)
	}
	return nil
}

// EnsureEdge creates (or returns) the site's edge instance, attached to
// the edge forwarder. siteLabel is the site's egress label assigned by
// Global Switchboard.
func (ls *LocalSwitchboard) EnsureEdge(siteLabel uint32) (*edge.Instance, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.edgeInst != nil {
		return ls.edgeInst, nil
	}
	if _, err := ls.roleLocked(edgeRole); err != nil {
		return nil, err
	}
	fwdAddr := simnet.Addr{Site: ls.site, Host: "fwd-" + edgeRole}
	ep, err := ls.net.Attach(simnet.Addr{Site: ls.site, Host: "edge-0"}, 4096)
	if err != nil {
		return nil, fmt.Errorf("controller: attaching edge at %s: %w", ls.site, err)
	}
	inst := edge.NewInstance(ep, fwdAddr, siteLabel)
	ls.edgeInst = inst
	ls.edgeStop = inst.Start()
	return inst, nil
}

// Edge returns the site's edge instance, if created.
func (ls *LocalSwitchboard) Edge() *edge.Instance {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.edgeInst
}

// applyTable brings this site in line with a route table by diffing it
// against the last table applied: a merge walk over the two sorted
// tables, in which an unchanged record is the same pointer. Chains absent
// from the new table are removed first; new and changed records then go
// through onRoute. Removing first means a stack freed by one chain and
// taken by another in the same table is never installed and then wiped.
// A record of another incarnation than the chain's previous one (the
// chain was deleted and created again) is a removal followed by a new
// chain; any other changed record is an update of the same chain.
func (ls *LocalSwitchboard) applyTable(table []*RouteRecord) {
	old := ls.applied
	ls.applied = table
	var changed []*RouteRecord
	i, j := 0, 0
	for i < len(old) || j < len(table) {
		switch {
		case i < len(old) && j < len(table) && old[i] == table[j]:
			i++ // unchanged: no need to read the record
			j++
		case j == len(table) || i < len(old) && old[i].Chain < table[j].Chain:
			ls.removeChain(old[i])
			i++
		case i == len(old) || table[j].Chain < old[i].Chain:
			changed = append(changed, table[j])
			j++
		default:
			if old[i].Incarnation != table[j].Incarnation {
				ls.removeChain(old[i])
			}
			changed = append(changed, table[j])
			i++
			j++
		}
	}
	for _, rec := range changed {
		ls.onRoute(rec)
	}
}

// onRoute processes a new or updated chain route record: determines
// this site's roles, publishes its forwarders for the VNFs it hosts,
// subscribes to the topics its rules depend on, and (re)installs rules.
func (ls *LocalSwitchboard) onRoute(rec *RouteRecord) {
	st := labels.Stack{Chain: rec.ChainLabel, Egress: rec.EgressLabel}
	ls.mu.Lock()
	if ls.closed {
		ls.mu.Unlock()
		return
	}
	cs, ok := ls.chains[rec.Chain]
	if !ok {
		cs = &chainState{}
		ls.chains[rec.Chain] = cs
	}
	ls.routesApplied.Add(1)
	cs.rec = rec
	tl := ls.tl
	ls.mu.Unlock()
	if tl != nil {
		tl.Record(fmt.Sprintf("localSB %s received route v%d for %s", ls.site, rec.Version, rec.Chain))
	}

	// The apply-route span covers everything this site does with the
	// record: publishing its forwarders, wiring subscriptions, and
	// installing rules. The record's SpanID parents it back to the GS
	// operation that produced the route, across the bus. applyTable hands
	// over only new or changed records, so republished ones don't re-span.
	sp := ls.recorder().Start("ls."+string(ls.site)+".apply_route", "ls.rule_install_ms", rec.SpanID)
	if sp != nil {
		sp.Event(fmt.Sprintf("route v%d received for %s", rec.Version, rec.Chain))
	}
	defer sp.End()

	// Publish this site's forwarders for the roles it plays (all
	// members of a scaled-out set, each with equal weight).
	for j, vnfName := range rec.VNFs {
		if ls.siteHostsStage(rec, j+1) {
			ls.publishRole(st, vnfName)
		}
	}
	if rec.IsIngress(ls.site) || rec.EgressSite == ls.site {
		ls.publishRole(st, edgeRole)
	}
	sp.Event("forwarders published")

	// Subscribe to every topic this site's rules depend on.
	for _, k := range ls.dependencies(rec) {
		ls.subscribe(cs, rec.Chain, st, k)
	}
	sp.Event("dependency subscriptions ensured")
	ls.reinstall(rec.Chain)
	sp.Event("rules installed")
}

// removeChain removes the chain's rules from every forwarder at this
// site, cancels its subscriptions, and drops its state.
func (ls *LocalSwitchboard) removeChain(rec *RouteRecord) {
	st := labels.Stack{Chain: rec.ChainLabel, Egress: rec.EgressLabel}
	ls.mu.Lock()
	cs, ok := ls.chains[rec.Chain]
	if ok {
		delete(ls.chains, rec.Chain)
	}
	var fwds []*fwdRuntime
	for _, rr := range ls.forwarders {
		fwds = append(fwds, rr.fwds...)
	}
	edgeInst := ls.edgeInst
	tl := ls.tl
	ls.mu.Unlock()
	if !ok {
		return
	}
	for _, rt := range fwds {
		rt.f.RemoveRule(st)
	}
	if edgeInst != nil {
		edgeInst.RemoveChainRules(st.Chain)
	}
	for _, sub := range cs.subs {
		sub.Cancel()
	}
	if tl != nil {
		tl.Record(fmt.Sprintf("localSB %s removed chain %s", ls.site, rec.Chain))
	}
}

// siteHostsStage reports whether this site receives traffic at stage z
// (i.e. hosts the stage-z VNF under the route's splits).
func (ls *LocalSwitchboard) siteHostsStage(rec *RouteRecord, z int) bool {
	for _, s := range rec.Splits {
		if s.Stage == z && s.To == ls.site && s.Weight > 0 {
			return true
		}
	}
	return false
}

// dependencies lists what this site's rules for the chain are computed
// from. A key may repeat; subscribe ignores repeats.
func (ls *LocalSwitchboard) dependencies(rec *RouteRecord) []depKey {
	var out []depKey
	add := func(role string, sites map[simnet.SiteID]float64) {
		for s := range sites {
			out = append(out, depKey{role: role, site: s})
		}
	}
	for j, vnfName := range rec.VNFs {
		if z := j + 1; ls.siteHostsStage(rec, z) {
			// Local instances, next-stage and previous-stage forwarders.
			out = append(out, depKey{role: vnfName, site: ls.site, instances: true})
			add(ls.stagePeers(rec, z+1, true))
			add(ls.stagePeers(rec, z, false))
		}
	}
	if rec.IsIngress(ls.site) {
		add(ls.stagePeers(rec, 1, true))
	}
	if rec.EgressSite == ls.site {
		add(ls.stagePeers(rec, rec.Stages(), false))
	}
	return out
}

// stagePeers returns the role on the far side of this site's stage-z
// hop and the sites there with their split weights: where stage-z
// traffic goes from this site (forward) or where it comes from
// (!forward). When this site has no split of its own for the hop, the
// aggregate weights are used.
func (ls *LocalSwitchboard) stagePeers(rec *RouteRecord, z int, forward bool) (string, map[simnet.SiteID]float64) {
	k := z - 1 // the far side's VNF index
	if !forward {
		k = z - 2
	}
	role := edgeRole
	if k >= 0 && k < len(rec.VNFs) {
		role = rec.VNFs[k]
	}
	out := make(map[simnet.SiteID]float64)
	for _, own := range []bool{true, false} {
		for _, s := range rec.Splits {
			near, far := s.From, s.To
			if !forward {
				near, far = s.To, s.From
			}
			if s.Stage == z && (!own || near == ls.site) {
				out[far] += s.Weight
			}
		}
		if len(out) > 0 {
			break
		}
	}
	return role, out
}

// subscribe wires one input of a chain to its bus topic: the callback
// keeps the input's latest list and marks the chain dirty for the apply
// loop.
func (ls *LocalSwitchboard) subscribe(cs *chainState, id ChainID, st labels.Stack, k depKey) {
	for _, d := range cs.deps {
		if d.key == k {
			return
		}
	}
	d := &dep{key: k}
	cs.deps = append(cs.deps, d)
	topic := k.topic(st)
	sub, err := ls.bus.SubscribeFunc(ls.site, topic, func(pub bus.Publication) {
		infos, ok := pub.Payload.([]InstanceInfo)
		if !ok {
			return
		}
		ls.mu.Lock()
		d.pending, d.fresh = infos, true
		ls.dirty[id] = true
		tl := ls.tl
		ls.mu.Unlock()
		if tl != nil {
			tl.Record(fmt.Sprintf("localSB %s received %s", ls.site, topic))
		}
		ls.poke()
	})
	if err != nil {
		return
	}
	ls.mu.Lock()
	closed := ls.closed
	if !closed {
		cs.subs = append(cs.subs, sub)
	}
	ls.mu.Unlock()
	if closed {
		sub.Cancel() // Close already cancelled the subscriptions it saw
	}
}

// reinstall recomputes and installs rules for a chain at every forwarder
// role this site plays.
//
// Only the apply loop calls it. It clears the chain's dirty mark in the
// same critical section that reads the chain's state, so no update can
// land between the read and the mark being cleared.
func (ls *LocalSwitchboard) reinstall(id ChainID) {
	ls.mu.Lock()
	delete(ls.dirty, id)
	cs, ok := ls.chains[id]
	if !ok {
		ls.mu.Unlock()
		return
	}
	rec := cs.rec
	for _, d := range cs.deps {
		if d.fresh {
			d.infos, d.pending, d.fresh = d.pending, nil, false
		}
	}
	tl := ls.tl
	ls.mu.Unlock()

	st := labels.Stack{Chain: rec.ChainLabel, Egress: rec.EgressLabel}

	// Hosted VNFs.
	for j, vnfName := range rec.VNFs {
		z := j + 1
		if !ls.siteHostsStage(rec, z) {
			// A newer route version moved this stage off the site:
			// leaving the old rule behind would keep a dead path
			// installed, so drop it from any existing forwarders.
			ls.removeStaleRule(vnfName, st)
			continue
		}
		members := ls.roleForwarders(vnfName, true)
		instances := cs.infos(depKey{role: vnfName, site: ls.site, instances: true})
		live := len(instances) > 0
		for _, rt := range members {
			f := rt.f
			if !live {
				// No live instances (not yet published, or the site's
				// deployment failed): forwarding here would bypass the
				// VNF and violate conformity, so drop instead of
				// installing a transit rule.
				f.RemoveRule(st)
				continue
			}
			spec := forwarder.RuleSpec{Chain: string(rec.Chain)}
			for _, info := range instances {
				hop := ls.hopFor(f, forwarder.NextHop{
					Kind: forwarder.KindVNF, Addr: info.Addr,
					LabelAware: info.LabelAware, Labels: st,
				})
				spec.LocalVNF = append(spec.LocalVNF, forwarder.WeightedHop{Hop: hop, Weight: info.Weight})
			}
			spec.Next = ls.weightedForwarders(f, cs, rec, z+1, true)
			spec.Prev = ls.weightedForwarders(f, cs, rec, z, false)
			f.InstallRule(st, spec)
		}
		if tl != nil {
			if live {
				tl.Record(fmt.Sprintf("localSB %s installed rule for %s at fwd-%s", ls.site, id, vnfName))
			} else {
				tl.Record(fmt.Sprintf("localSB %s removed rule for %s at fwd-%s (no instances)", ls.site, id, vnfName))
			}
		}
	}

	// Edge role: one combined rule whether this site is the chain's
	// ingress, its egress, or both. The edge instance is the rule's
	// local element: packets entering from outside are handed to it
	// (egress side) and packets it injects head to the chain's first
	// stage (ingress side); the forwarder's position-based routing
	// keeps the two directions apart per connection.
	if rec.IsIngress(ls.site) || rec.EgressSite == ls.site {
		if members := ls.roleForwarders(edgeRole, true); len(members) > 0 {
			edgeInst := ls.Edge()
			for _, rt := range members {
				f := rt.f
				spec := forwarder.RuleSpec{Chain: string(rec.Chain)}
				if edgeInst != nil {
					hop := ls.hopFor(f, forwarder.NextHop{Kind: forwarder.KindEdge, Addr: edgeInst.Addr()})
					spec.LocalVNF = []forwarder.WeightedHop{{Hop: hop, Weight: 1}}
				}
				if rec.IsIngress(ls.site) {
					spec.Next = ls.weightedForwarders(f, cs, rec, 1, true)
				}
				if rec.EgressSite == ls.site {
					spec.Prev = ls.weightedForwarders(f, cs, rec, rec.Stages(), false)
				}
				f.InstallRule(st, spec)
			}
			if tl != nil {
				tl.Record(fmt.Sprintf("localSB %s installed edge rule for %s", ls.site, id))
			}
		}
	} else {
		ls.removeStaleRule(edgeRole, st)
	}
}

// removeStaleRule drops a chain's rule from a role's existing forwarder
// set. Forwarders are never created just to delete from them.
func (ls *LocalSwitchboard) removeStaleRule(role string, st labels.Stack) {
	for _, rt := range ls.roleForwarders(role, false) {
		rt.f.RemoveRule(st)
	}
}

// weightedForwarders builds the hierarchical weights of the forwarders
// on the far side of this site's stage-z hop (see stagePeers): site-level
// split weight × published forwarder weight.
func (ls *LocalSwitchboard) weightedForwarders(f *forwarder.Forwarder, cs *chainState, rec *RouteRecord, z int, forward bool) []forwarder.WeightedHop {
	role, sites := ls.stagePeers(rec, z, forward)
	var out []forwarder.WeightedHop
	for site, siteWeight := range sites {
		list := cs.infos(depKey{role: role, site: site})
		total := 0.0
		for _, info := range list {
			total += info.Weight
		}
		if total <= 0 {
			continue
		}
		for _, info := range list {
			hop := ls.hopFor(f, forwarder.NextHop{Kind: forwarder.KindForwarder, Addr: info.Addr})
			out = append(out, forwarder.WeightedHop{Hop: hop, Weight: siteWeight * info.Weight / total})
		}
	}
	return out
}

// hopFor registers the target at the forwarder once, reusing the existing
// hop ID on subsequent calls.
func (ls *LocalSwitchboard) hopFor(f *forwarder.Forwarder, nh forwarder.NextHop) flowtable.Hop {
	if id := f.HopByAddr(nh.Addr); id != flowtable.None {
		return id
	}
	return f.AddHop(nh)
}

// RegisterEdgeHop makes the edge instance a known source at the edge
// forwarder (so its packets are attributed correctly).
func (ls *LocalSwitchboard) RegisterEdgeHop() error {
	edgeInst := ls.Edge()
	if edgeInst == nil {
		return fmt.Errorf("controller: no edge instance at %s", ls.site)
	}
	f, err := ls.Forwarder(edgeRole)
	if err != nil {
		return err
	}
	ls.hopFor(f, forwarder.NextHop{Kind: forwarder.KindEdge, Addr: edgeInst.Addr()})
	return nil
}

// rulesReady reports whether this site's forwarders have complete rules
// for the chain: the edge role (if ingress/egress here) and every hosted
// VNF role must have a rule with a usable next hop, and hosted VNFs must
// have local instances.
func (ls *LocalSwitchboard) rulesReady(rec *RouteRecord) bool {
	st := labels.Stack{Chain: rec.ChainLabel, Egress: rec.EgressLabel}
	// The chain's labels are stable across route versions, so a rule
	// alone could be a stale leftover of the previous version (or of a
	// deleted chain that had the same ID); require that this record's
	// incarnation and version have been processed here first.
	ls.mu.Lock()
	cs, ok := ls.chains[rec.Chain]
	current := ok && cs.rec != nil && cs.rec.Incarnation == rec.Incarnation && cs.rec.Version >= rec.Version
	ls.mu.Unlock()
	if !current {
		return false
	}
	// info is the first member's rule; every member must have one.
	info := func(role string) (local, next, prev int, ok bool) {
		members := ls.roleForwarders(role, false)
		for _, rt := range members {
			if _, _, _, has := rt.f.RuleInfo(st); !has {
				return 0, 0, 0, false
			}
		}
		if len(members) == 0 {
			return 0, 0, 0, false
		}
		return members[0].f.RuleInfo(st)
	}
	if rec.IsIngress(ls.site) || rec.EgressSite == ls.site {
		local, next, prev, ok := info(edgeRole)
		if !ok || local == 0 {
			return false
		}
		if rec.IsIngress(ls.site) && next == 0 {
			return false
		}
		if rec.EgressSite == ls.site && prev == 0 {
			return false
		}
	}
	for j, vnfName := range rec.VNFs {
		if ls.siteHostsStage(rec, j+1) {
			local, next, _, ok := info(vnfName)
			if !ok || local == 0 || next == 0 {
				return false
			}
		}
	}
	return true
}

// Close cancels subscriptions and stops forwarders and the edge instance.
func (ls *LocalSwitchboard) Close() {
	ls.mu.Lock()
	if ls.closed {
		ls.mu.Unlock()
		return
	}
	ls.closed = true
	close(ls.stop)
	subs := []*bus.Subscription{ls.routesSub}
	for _, cs := range ls.chains {
		subs = append(subs, cs.subs...)
	}
	var fwds []*fwdRuntime
	for _, rr := range ls.forwarders {
		fwds = append(fwds, rr.fwds...)
	}
	edgeStop := ls.edgeStop
	ls.mu.Unlock()

	for _, s := range subs {
		s.Cancel()
	}
	for _, rt := range fwds {
		rt.stop()
	}
	if edgeStop != nil {
		edgeStop()
	}
	ls.wg.Wait()
}

// routesTopic is the global route feed, homed at Global Switchboard's
// site so a single wide-area copy per site carries every route update.
func routesTopic(gsbSite simnet.SiteID) bus.Topic {
	return bus.MakeTopic("routes", "all", "global", gsbSite, "records")
}
