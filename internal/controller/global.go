package controller

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"switchboard/internal/bus"
	"switchboard/internal/edge"
	"switchboard/internal/labels"
	"switchboard/internal/metrics"
	"switchboard/internal/model"
	"switchboard/internal/obs"
	"switchboard/internal/simnet"
	"switchboard/internal/te"
)

// GlobalSwitchboard is the centralized controller (Section 4): it builds
// the network model from registered sites and VNF services, computes
// wide-area chain routes with the SB-DP heuristic (or SB-LP on demand),
// installs them atomically across VNF controllers with two-phase commit,
// and publishes route records on the global message bus for Local
// Switchboards to realize (Figure 4).
type GlobalSwitchboard struct {
	site simnet.SiteID // site hosting the controller (route-topic home)
	net  *simnet.Network
	bus  *bus.Bus

	mu         sync.Mutex
	sites      []simnet.SiteID
	siteLabels map[simnet.SiteID]uint32
	siteCap    map[simnet.SiteID]float64
	vnfs       map[string]*VNFController
	locals     map[simnet.SiteID]*LocalSwitchboard
	chains     map[ChainID]*chainRecord
	alloc      *labels.Allocator
	txSeq      int
	tl         *Timeline
	rec        *obs.Recorder
	// table is the route feed's content: every chain's current record,
	// sorted by ChainID. It changes only with chains (storeChainLocked)
	// and copy-on-write: a published table is never modified, so an
	// unchanged record stays the same pointer from one table to the next.
	table []*RouteRecord
	// incarnations numbers chain creations (RouteRecord.Incarnation).
	incarnations uint64
	// failedSites is the failure detector's current verdict per site.
	failedSites map[simnet.SiteID]bool
	// UseLP switches chain routing to the LP optimizer (SB-LP); the
	// default is the SB-DP heuristic, as the paper recommends.
	UseLP bool
	// Router, when non-nil, overrides route computation entirely; the
	// experiment harness uses it to install the baseline schemes
	// (ANYCAST, COMPUTE-AWARE) through the same control plane.
	Router func(nw *model.Network) (*model.Routing, error)
	// NoAdmissionControl skips the full-routability requirement and the
	// two-phase commit, installing whatever route the router produced.
	// Baselines without admission control use this; the data plane then
	// exhibits their overload behaviour (queueing at instances).
	NoAdmissionControl bool
	// InstancesPerSite is how many VNF instances each controller
	// allocates per chain per site (default 1).
	InstancesPerSite int

	// Control-plane counters; see RegisterMetrics for the exported names.
	chainsCreated  atomic.Uint64
	reroutes       atomic.Uint64
	siteFailures   atomic.Uint64
	routePublishes atomic.Uint64
	// pubMu is held from reading the route table through its bus
	// publication, so the feed's revisions follow the table's order.
	pubMu sync.Mutex
	// opParent is the span ID of the in-flight failure-handling
	// operation; nested RecomputeChain spans parent to it. Best-effort:
	// concurrent failovers overwrite each other's linkage (the spans
	// themselves stay correct).
	opParent atomic.Uint64
	// reconv records end-to-end site-failure recovery durations.
	reconv *metrics.Histogram

	// Batched admission (SetAdmissionWindow): pending CreateChain
	// requests accumulate under admitMu until the window timer or the
	// batch-size cap flushes them through one joint solve.
	admitMu     sync.Mutex
	admitWindow time.Duration
	admitQueue  []pendingAdmit
	admitTimer  *time.Timer
	// batchSize records chains-per-batch (as raw units, not durations).
	batchSize *metrics.Histogram
}

type chainRecord struct {
	spec Spec
	rec  *RouteRecord
	// committedLoad is what the 2PC reserved per VNF per site.
	committedLoad map[string]map[simnet.SiteID]float64
	// allocated tracks (vnf, site) pairs whose instances exist.
	allocated map[string]map[simnet.SiteID]bool
}

// NewGlobalSwitchboard creates the controller. site is where it runs
// (its bus proxy homes the route feed).
func NewGlobalSwitchboard(net *simnet.Network, b *bus.Bus, site simnet.SiteID) *GlobalSwitchboard {
	return &GlobalSwitchboard{
		site:             site,
		net:              net,
		bus:              b,
		siteLabels:       make(map[simnet.SiteID]uint32),
		siteCap:          make(map[simnet.SiteID]float64),
		vnfs:             make(map[string]*VNFController),
		locals:           make(map[simnet.SiteID]*LocalSwitchboard),
		chains:           make(map[ChainID]*chainRecord),
		alloc:            labels.NewAllocator(),
		failedSites:      make(map[simnet.SiteID]bool),
		InstancesPerSite: 1,
		reconv:           metrics.NewHistogram(),
		batchSize:        metrics.NewHistogram(),
	}
}

// RegisterMetrics publishes the controller's counters into a metrics
// registry. All counters are cumulative control-plane operations; the
// histogram records durations in nanoseconds:
//
//	gs.chains_created  chains successfully created
//	gs.reroutes        successful chain recomputations (incl. failure recovery)
//	gs.site_failures   site failures handled
//	gs.route_publishes route snapshots published on the bus
//	gs.reconvergence   histogram: site-failure recovery duration
//	gs.admission_batch_size histogram: chains per admission batch (raw count)
//
// It also pre-creates the histograms the controller's spans fold into
// (see SetRecorder), so the names appear in snapshots before the first
// span completes:
//
//	gs.chain_setup_ms        histogram: CreateChain end to end
//	gs.path_compute_ms       histogram: one TE solve (SB-DP/SB-LP/override)
//	controlplane.failover_ms histogram: last heartbeat seen → failure handled
//	controlplane.detect_ms   histogram: last heartbeat seen → failure declared
func (g *GlobalSwitchboard) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("gs.chains_created", g.chainsCreated.Load)
	r.CounterFunc("gs.reroutes", g.reroutes.Load)
	r.CounterFunc("gs.site_failures", g.siteFailures.Load)
	r.CounterFunc("gs.route_publishes", g.routePublishes.Load)
	r.RegisterHistogram("gs.reconvergence", g.reconv)
	r.RegisterHistogram("gs.admission_batch_size", g.batchSize)
	r.Histogram("gs.chain_setup_ms")
	r.Histogram("gs.path_compute_ms")
	r.Histogram("controlplane.failover_ms")
	r.Histogram("controlplane.detect_ms")
}

// SetRecorder attaches a control-plane span recorder: chain creation,
// path computation, recomputation, and failure handling are stamped as
// spans (obs package). A nil recorder (the default) costs nothing.
func (g *GlobalSwitchboard) SetRecorder(rec *obs.Recorder) {
	g.mu.Lock()
	g.rec = rec
	g.mu.Unlock()
}

func (g *GlobalSwitchboard) recorder() *obs.Recorder {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rec
}

// SetTimeline attaches a timeline for responsiveness experiments.
func (g *GlobalSwitchboard) SetTimeline(tl *Timeline) {
	g.mu.Lock()
	g.tl = tl
	g.mu.Unlock()
}

// Site returns the controller's home site.
func (g *GlobalSwitchboard) Site() simnet.SiteID { return g.site }

// RoutesTopic returns the topic Local Switchboards subscribe to.
func (g *GlobalSwitchboard) RoutesTopic() bus.Topic { return routesTopic(g.site) }

// RegisterSite adds a cloud/edge site with its compute capacity and
// returns the site's egress label.
func (g *GlobalSwitchboard) RegisterSite(site simnet.SiteID, capacity float64) (uint32, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if l, ok := g.siteLabels[site]; ok {
		return l, nil
	}
	l, err := g.alloc.Alloc()
	if err != nil {
		return 0, err
	}
	g.sites = append(g.sites, site)
	g.siteLabels[site] = l
	g.siteCap[site] = capacity
	return l, nil
}

// SiteLabel returns a site's egress label.
func (g *GlobalSwitchboard) SiteLabel(site simnet.SiteID) (uint32, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	l, ok := g.siteLabels[site]
	return l, ok
}

// RegisterVNF adds a VNF service (Figure 4's "prior to chain
// specification": services register themselves before any chain exists).
func (g *GlobalSwitchboard) RegisterVNF(v *VNFController) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.vnfs[v.Name()] = v
}

// RegisterLocal adds a site's Local Switchboard, used for direct
// coordination (edge setup) alongside the bus.
func (g *GlobalSwitchboard) RegisterLocal(ls *LocalSwitchboard) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.locals[ls.Site()] = ls
}

// Local returns a site's Local Switchboard.
func (g *GlobalSwitchboard) Local(site simnet.SiteID) (*LocalSwitchboard, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ls, ok := g.locals[site]
	return ls, ok
}

// buildModel assembles the TE network model from the registry, using
// remaining (uncommitted) VNF capacity, and injects the candidate chain.
func (g *GlobalSwitchboard) buildModel(spec Spec) (*model.Network, map[simnet.SiteID]model.NodeID, error) {
	return g.buildModelMulti([]Spec{spec})
}

// buildModelMulti assembles the model with several candidate chains.
func (g *GlobalSwitchboard) buildModelMulti(specs []Spec) (*model.Network, map[simnet.SiteID]model.NodeID, error) {
	g.mu.Lock()
	sites := append([]simnet.SiteID(nil), g.sites...)
	vnfs := make(map[string]*VNFController, len(g.vnfs))
	for n, v := range g.vnfs {
		vnfs[n] = v
	}
	siteCap := make(map[simnet.SiteID]float64, len(g.siteCap))
	for s, c := range g.siteCap {
		siteCap[s] = c
	}
	g.mu.Unlock()

	nodeOf := make(map[simnet.SiteID]model.NodeID, len(sites))
	nw := model.NewNetwork(len(sites), 1.0)
	for i, s := range sites {
		nodeOf[s] = model.NodeID(i)
	}
	for i, a := range sites {
		for j, b := range sites {
			if i == j {
				continue
			}
			nw.SetDelay(model.NodeID(i), model.NodeID(j), g.net.Path(a, b).Delay)
		}
	}
	for _, s := range sites {
		nw.AddSite(nodeOf[s], siteCap[s])
	}
	for name, v := range vnfs {
		mv := nw.AddVNF(model.VNFID(name), v.LoadPerUnit())
		for s, remaining := range v.Sites() {
			node, ok := nodeOf[s]
			if !ok {
				continue
			}
			if remaining > 0 {
				mv.SiteCapacity[node] = remaining
			}
		}
	}

	for _, spec := range specs {
		in, ok := nodeOf[spec.IngressSite]
		if !ok {
			return nil, nil, fmt.Errorf("controller: unknown ingress site %s", spec.IngressSite)
		}
		eg, ok := nodeOf[spec.EgressSite]
		if !ok {
			return nil, nil, fmt.Errorf("controller: unknown egress site %s", spec.EgressSite)
		}
		mc := &model.Chain{
			ID:            model.ChainID(spec.ID),
			Ingress:       in,
			Egress:        eg,
			LatencyBudget: spec.LatencyBudget,
		}
		for _, v := range spec.VNFs {
			if _, ok := vnfs[v]; !ok {
				return nil, nil, fmt.Errorf("controller: chain %s references unknown VNF %q", spec.ID, v)
			}
			mc.VNFs = append(mc.VNFs, model.VNFID(v))
		}
		mc.UniformTraffic(spec.ForwardRate, spec.ReverseRate)
		nw.AddChain(mc)
	}
	if err := nw.Validate(); err != nil {
		return nil, nil, fmt.Errorf("controller: model: %w", err)
	}
	return nw, nodeOf, nil
}

// OptimizeAll re-runs traffic engineering jointly across every installed
// chain — the paper's holistic optimization: visibility across chains,
// VNFs, and sites lets the optimizer place chains so they do not steal
// each other's best instances (Section 7.2). Existing committed loads
// are released, the joint problem is solved (SB-LP when UseLP is set,
// otherwise SB-DP over all chains), new reservations are committed, and
// updated route records are published. Existing connections keep their
// pinned paths; new flows follow the new routes.
func (g *GlobalSwitchboard) OptimizeAll() error {
	g.mu.Lock()
	specs := make([]Spec, 0, len(g.chains))
	recs := make(map[ChainID]*chainRecord, len(g.chains))
	tl := g.tl
	for id, cr := range g.chains {
		specs = append(specs, cr.spec)
		recs[id] = cr
	}
	g.mu.Unlock()
	if len(specs) == 0 {
		return nil
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })

	// Release current loads so the joint solve sees full capacity.
	for _, cr := range recs {
		for vnfName, perSite := range cr.committedLoad {
			if v := g.vnf(vnfName); v != nil {
				v.ReleaseLoad(perSite)
			}
		}
	}
	nw, nodeOf, err := g.buildModelMulti(specs)
	if err != nil {
		return err
	}
	siteOf := make(map[model.NodeID]simnet.SiteID, len(nodeOf))
	for s, n := range nodeOf {
		siteOf[n] = s
	}
	csp := g.recorder().Start("gs.path_compute", "gs.path_compute_ms", g.opParent.Load())
	routing, err := g.routeChain(nw)
	if err != nil {
		csp.Fail(err)
		csp.End()
		return err
	}
	csp.End()
	tl.Record("joint optimization solved")

	tx := g.nextTx("all")
	var prepared []*VNFController
	newLoads := make(map[ChainID]map[string]map[simnet.SiteID]float64, len(specs))
	agg := make(map[string]map[simnet.SiteID]float64)
	for _, spec := range specs {
		split := routing.Splits[model.ChainID(spec.ID)]
		if split == nil || split.RoutedFraction() < 0.999 {
			return fmt.Errorf("%w: chain %s in joint optimization", ErrNoRoute, spec.ID)
		}
		load := vnfLoads(nw, spec, split, siteOf)
		newLoads[spec.ID] = load
		for vnfName, perSite := range load {
			m, ok := agg[vnfName]
			if !ok {
				m = make(map[simnet.SiteID]float64)
				agg[vnfName] = m
			}
			for s, l := range perSite {
				m[s] += l
			}
		}
	}
	for vnfName, perSite := range agg {
		v := g.vnf(vnfName)
		if v == nil {
			continue
		}
		if err := v.Prepare(tx, perSite); err != nil {
			for _, p := range prepared {
				p.Abort(tx)
			}
			return fmt.Errorf("controller: joint 2PC rejected: %w", err)
		}
		prepared = append(prepared, v)
	}
	for _, p := range prepared {
		p.Commit(tx)
	}
	tl.Record("joint routes committed (2PC)")

	for _, spec := range specs {
		cr := recs[spec.ID]
		split := routing.Splits[model.ChainID(spec.ID)]
		rec := g.recordFromSplit(spec, split, siteOf, cr.rec.ChainLabel, cr.rec.EgressLabel)
		g.mu.Lock()
		rec.ExtraIngress = cr.rec.ExtraIngress
		cr.committedLoad = newLoads[spec.ID]
		g.updateChainLocked(spec.ID, cr, rec)
		g.mu.Unlock()
		if err := g.publishRoute(); err != nil {
			return err
		}
		if err := g.allocateInstances(cr); err != nil {
			return err
		}
	}
	tl.Record("joint routes published")
	return nil
}

// ErrNoRoute means traffic engineering could not place the chain.
var ErrNoRoute = errors.New("controller: no feasible route")

// CreateChain runs the full chain-creation sequence of Figure 4 and
// returns the installed route record. With batched admission enabled
// (SetAdmissionWindow), the request joins the current admission batch
// and blocks until the batch is solved; otherwise it is processed
// immediately on its own.
func (g *GlobalSwitchboard) CreateChain(spec Spec) (*RouteRecord, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if rec, err, batched := g.admitBatched(spec); batched {
		return rec, err
	}
	return g.createOne(spec)
}

// createOne is the unbatched chain-creation sequence.
func (g *GlobalSwitchboard) createOne(spec Spec) (rec *RouteRecord, err error) {
	g.mu.Lock()
	if _, dup := g.chains[spec.ID]; dup {
		g.mu.Unlock()
		return nil, fmt.Errorf("controller: chain %s already exists", spec.ID)
	}
	tl := g.tl
	g.mu.Unlock()

	sp := g.recorder().Start("gs.create_chain", "gs.chain_setup_ms", 0)
	sp.Event("request accepted: " + string(spec.ID))
	defer func() {
		sp.Fail(err)
		sp.End()
	}()

	// Step 1: edges exist before routing (edge service registration).
	inLabel, err := g.ensureEdgeAt(spec.IngressSite)
	if err != nil {
		return nil, err
	}
	_ = inLabel
	egLabel, err := g.ensureEdgeAt(spec.EgressSite)
	if err != nil {
		return nil, err
	}
	tl.Record("edges resolved")
	sp.Event("edges resolved")

	chainLabel, err := g.allocLabel()
	if err != nil {
		return nil, err
	}
	rec, load, err := g.computeAndCommit(spec, chainLabel, egLabel, sp.ID())
	if err != nil {
		return nil, err
	}
	tl.Record("route computed and committed (2PC)")
	sp.Event("route computed and committed (2PC)")
	rec.SpanID = sp.ID()

	cr := &chainRecord{
		spec:          spec,
		rec:           rec,
		committedLoad: load,
		allocated:     make(map[string]map[simnet.SiteID]bool),
	}
	g.mu.Lock()
	g.storeChainLocked(spec.ID, cr)
	g.mu.Unlock()

	// Step 3: propagate routes.
	if err := g.publishRoute(); err != nil {
		return nil, err
	}
	tl.Record("route published")
	sp.Event("route published")

	// Step 4: VNF controllers allocate instances and publish them.
	if err := g.allocateInstances(cr); err != nil {
		return nil, err
	}
	tl.Record("instances allocated")
	sp.Event("instances allocated")
	g.chainsCreated.Add(1)
	return rec, nil
}

func (g *GlobalSwitchboard) allocLabel() (uint32, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.alloc.Alloc()
}

// computeAndCommit runs TE and the two-phase commit, recomputing with a
// VNF's site excluded whenever that VNF controller rejects the proposed
// reservation. parent links the per-attempt path-compute spans to the
// requesting operation.
func (g *GlobalSwitchboard) computeAndCommit(spec Spec, chainLabel, egLabel uint32, parent uint64) (*RouteRecord, map[string]map[simnet.SiteID]float64, error) {
	exclude := make(map[string]map[simnet.SiteID]bool)
	for attempt := 0; attempt < 5; attempt++ {
		nw, nodeOf, err := g.buildModel(spec)
		if err != nil {
			return nil, nil, err
		}
		siteOf := make(map[model.NodeID]simnet.SiteID, len(nodeOf))
		for s, n := range nodeOf {
			siteOf[n] = s
		}
		for vnfName, sites := range exclude {
			mv := nw.VNFs[model.VNFID(vnfName)]
			for s := range sites {
				delete(mv.SiteCapacity, nodeOf[s])
			}
		}

		csp := g.recorder().Start("gs.path_compute", "gs.path_compute_ms", parent)
		routing, err := g.routeChain(nw)
		if err != nil {
			csp.Fail(err)
			csp.End()
			return nil, nil, err
		}
		csp.End()
		split := routing.Splits[model.ChainID(spec.ID)]
		// The controller requires the full demand routable; a VNF that
		// can only host part of the chain's traffic is a resource
		// shortage (the TE layer supports partial admission, but a
		// production chain must carry all of its customer's traffic).
		minRouted := 0.999
		if g.NoAdmissionControl {
			minRouted = 1e-9
		}
		if split == nil || split.RoutedFraction() < minRouted {
			return nil, nil, fmt.Errorf("%w: chain %s", ErrNoRoute, spec.ID)
		}

		rec := g.recordFromSplit(spec, split, siteOf, chainLabel, egLabel)
		load := vnfLoads(nw, spec, split, siteOf)
		if g.NoAdmissionControl {
			// No 2PC, but still record the load so the next chain's
			// route computation sees remaining capacity (COMPUTE-AWARE
			// depends on this; ANYCAST ignores capacity anyway).
			for vnfName, perSite := range load {
				if v := g.vnf(vnfName); v != nil {
					v.ForceCommit(perSite)
				}
			}
			return rec, load, nil
		}

		// Two-phase commit across the VNF controllers on the route.
		tx := g.nextTx(spec.ID)
		var preparedAt []*VNFController
		var rejected *ErrInsufficientCapacity
		var rejectedVNF string
		for vnfName, perSite := range load {
			v := g.vnf(vnfName)
			if v == nil {
				continue
			}
			if err := v.Prepare(tx, perSite); err != nil {
				var ice *ErrInsufficientCapacity
				if errors.As(err, &ice) {
					rejected = ice
					rejectedVNF = vnfName
					break
				}
				for _, p := range preparedAt {
					p.Abort(tx)
				}
				return nil, nil, err
			}
			preparedAt = append(preparedAt, v)
		}
		if rejected != nil {
			for _, p := range preparedAt {
				p.Abort(tx)
			}
			if exclude[rejectedVNF] == nil {
				exclude[rejectedVNF] = make(map[simnet.SiteID]bool)
			}
			exclude[rejectedVNF][rejected.Site] = true
			g.recorder().Log(fmt.Sprintf("gs: 2PC rejected by %s at %s for %s, recomputing", rejectedVNF, rejected.Site, spec.ID))
			continue // recompute without the rejected site
		}
		for _, p := range preparedAt {
			p.Commit(tx)
		}
		return rec, load, nil
	}
	return nil, nil, fmt.Errorf("%w: chain %s (2PC retries exhausted)", ErrNoRoute, spec.ID)
}

// routeChain picks the route computation: an explicit override, SB-LP,
// or the default SB-DP.
func (g *GlobalSwitchboard) routeChain(nw *model.Network) (*model.Routing, error) {
	if g.Router != nil {
		return g.Router(nw)
	}
	if g.UseLP {
		routing, err := te.SolveLP(nw, te.LPOptions{Objective: te.MaxThroughput, SkipLinkConstraints: true})
		if err != nil {
			return nil, fmt.Errorf("controller: SB-LP: %w", err)
		}
		return routing, nil
	}
	return te.SolveDP(nw, te.DPOptions{}), nil
}

// recordFromSplit converts a model split to a RouteRecord. Its Version
// and Incarnation are set when it is stored (storeChainLocked,
// updateChainLocked).
func (g *GlobalSwitchboard) recordFromSplit(spec Spec, split *model.ChainSplit, siteOf map[model.NodeID]simnet.SiteID, chainLabel, egLabel uint32) *RouteRecord {
	rec := &RouteRecord{
		Chain:       spec.ID,
		ChainLabel:  chainLabel,
		EgressLabel: egLabel,
		IngressSite: spec.IngressSite,
		EgressSite:  spec.EgressSite,
		VNFs:        append([]string(nil), spec.VNFs...),
	}
	total := split.RoutedFraction()
	if total <= 0 {
		total = 1
	}
	for z := 1; z <= len(split.Frac); z++ {
		for from, inner := range split.Frac[z-1] {
			for to, w := range inner {
				if w <= 1e-9 {
					continue
				}
				rec.Splits = append(rec.Splits, SiteSplit{
					Stage: z, From: siteOf[from], To: siteOf[to], Weight: w / total,
				})
			}
		}
	}
	sort.Slice(rec.Splits, func(i, j int) bool {
		a, b := rec.Splits[i], rec.Splits[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	rec.LatencyBudget = spec.LatencyBudget
	if rec.LatencyBudget == 0 {
		rec.LatencyBudget = g.defaultBudget(rec)
	}
	return rec
}

// DefaultBudgetHeadroom scales the TE solution's achieved path latency
// into a latency budget when the chain's Spec declares none: the SLO
// defaults to "twice what the chosen route needs in propagation alone",
// leaving room for queueing and processing before an alert fires.
const DefaultBudgetHeadroom = 2.0

// MinLatencyBudget floors derived budgets so chains whose route never
// leaves a site (zero propagation delay) still get a meaningful target.
const MinLatencyBudget = time.Millisecond

// defaultBudget derives a chain's latency budget from its published
// route: the expected one-way propagation delay (per-stage split-
// weighted mean, summed across stages) times DefaultBudgetHeadroom.
func (g *GlobalSwitchboard) defaultBudget(rec *RouteRecord) time.Duration {
	var expected float64
	for _, s := range rec.Splits {
		expected += s.Weight * float64(g.net.Path(s.From, s.To).Delay)
	}
	b := time.Duration(expected * DefaultBudgetHeadroom)
	if b < MinLatencyBudget {
		b = MinLatencyBudget
	}
	return b
}

// vnfLoads computes, per VNF and site, the compute load the chain's split
// places there (Eq. 4 for a single chain).
func vnfLoads(nw *model.Network, spec Spec, split *model.ChainSplit, siteOf map[model.NodeID]simnet.SiteID) map[string]map[simnet.SiteID]float64 {
	mc := nw.Chains[model.ChainID(spec.ID)]
	out := make(map[string]map[simnet.SiteID]float64)
	for j, fid := range mc.VNFs {
		f := nw.VNFs[fid]
		zin, zout := j+1, j+2
		perSite := make(map[simnet.SiteID]float64)
		for _, node := range nw.StageDests(mc, zin) {
			in := 0.0
			for _, inner := range split.Frac[zin-1] {
				in += inner[node]
			}
			outFrac := 0.0
			if inner, ok := split.Frac[zout-1][node]; ok {
				for _, x := range inner {
					outFrac += x
				}
			}
			load := f.LoadPerUnit * (mc.StageTraffic(zin)*in + mc.StageTraffic(zout)*outFrac)
			if load > 1e-12 {
				perSite[siteOf[node]] += load
			}
		}
		if len(perSite) > 0 {
			name := string(fid)
			if out[name] == nil {
				out[name] = perSite
			} else {
				for s, l := range perSite {
					out[name][s] += l
				}
			}
		}
	}
	return out
}

func (g *GlobalSwitchboard) vnf(name string) *VNFController {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.vnfs[name]
}

func (g *GlobalSwitchboard) nextTx(id ChainID) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.txSeq++
	return fmt.Sprintf("tx-%s-%d", id, g.txSeq)
}

// publishRoute publishes the full route table. The route feed is state
// (the bus retains the last value per topic for late subscribers), so
// each update carries the complete table — a single retained message
// always reconstructs every chain's route at any site, and a chain's
// absence from it is its deletion. The table is shared, not copied:
// storeChainLocked never modifies a table once it is set.
func (g *GlobalSwitchboard) publishRoute() error {
	g.pubMu.Lock()
	defer g.pubMu.Unlock()
	g.mu.Lock()
	table := g.table
	g.mu.Unlock()
	g.routePublishes.Add(1)
	return g.bus.Publish(g.site, g.RoutesTopic(), table, 256*len(table))
}

// storeChainLocked makes cr chain id's state (nil deletes the chain) and
// updates the route table to match, so the table always holds exactly
// the chains in g.chains. A chainRecord new to g.chains gets the next
// incarnation. The new table is a fresh slice: readers of the old one,
// published or not, never see it change. Caller holds g.mu.
func (g *GlobalSwitchboard) storeChainLocked(id ChainID, cr *chainRecord) {
	i, found := slices.BinarySearchFunc(g.table, id, func(r *RouteRecord, id ChainID) int {
		return cmp.Compare(r.Chain, id)
	})
	if cr != nil && g.chains[id] != cr {
		g.incarnations++ // a new chain under this ID
		cr.rec.Incarnation = g.incarnations
	}
	var table []*RouteRecord
	switch {
	case cr == nil && !found:
		return
	case cr == nil:
		delete(g.chains, id)
		table = make([]*RouteRecord, 0, len(g.table)-1)
		table = append(append(table, g.table[:i]...), g.table[i+1:]...)
	case found:
		g.chains[id] = cr
		table = slices.Clone(g.table)
		table[i] = cr.rec
	default:
		g.chains[id] = cr
		table = make([]*RouteRecord, 0, len(g.table)+1)
		table = append(append(append(table, g.table[:i]...), cr.rec), g.table[i:]...)
	}
	g.table = table
}

// updateChainLocked makes rec, not yet published, the next version of
// chain cr's record. The version is taken here, under g.mu, so updates
// racing on one chain (a recompute, an OptimizeAll, an AddEdgeSite) get
// strictly increasing versions in the order they reach the table. The
// table changes only while cr is still the chain's state: a chain that
// DeleteChain removed meanwhile is never put back. Caller holds g.mu.
func (g *GlobalSwitchboard) updateChainLocked(id ChainID, cr *chainRecord, rec *RouteRecord) {
	rec.Version = cr.rec.Version + 1
	rec.Incarnation = cr.rec.Incarnation
	cr.rec = rec
	if g.chains[id] == cr {
		g.storeChainLocked(id, cr)
	}
}

// ensureEdgeAt makes sure the site has an edge instance, registering the
// site on demand with zero compute capacity (a pure edge site).
func (g *GlobalSwitchboard) ensureEdgeAt(site simnet.SiteID) (uint32, error) {
	label, err := g.RegisterSite(site, g.capOf(site))
	if err != nil {
		return 0, err
	}
	ls, ok := g.Local(site)
	if !ok {
		return 0, fmt.Errorf("controller: no Local Switchboard at %s", site)
	}
	if _, err := ls.EnsureEdge(label); err != nil {
		return 0, err
	}
	return label, ls.RegisterEdgeHop()
}

func (g *GlobalSwitchboard) capOf(site simnet.SiteID) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.siteCap[site]
}

// allocateInstances triggers VNF controllers to create and publish
// instances at every (VNF, site) on the route not yet provisioned.
func (g *GlobalSwitchboard) allocateInstances(cr *chainRecord) error {
	rec := cr.rec
	st := labels.Stack{Chain: rec.ChainLabel, Egress: rec.EgressLabel}
	for j, vnfName := range rec.VNFs {
		v := g.vnf(vnfName)
		if v == nil {
			continue
		}
		for site, w := range rec.StageSites(j + 1) {
			if w <= 0 {
				continue
			}
			if cr.allocated[vnfName] == nil {
				cr.allocated[vnfName] = make(map[simnet.SiteID]bool)
			}
			if cr.allocated[vnfName][site] {
				continue
			}
			ls, ok := g.Local(site)
			if !ok {
				return fmt.Errorf("controller: no Local Switchboard at %s", site)
			}
			gateway, err := ls.ForwarderAddr(vnfName)
			if err != nil {
				return err
			}
			if err := v.AllocateForChain(st, site, gateway, g.InstancesPerSite); err != nil {
				return err
			}
			cr.allocated[vnfName][site] = true
		}
	}
	return nil
}

// Record returns the current route record for a chain.
func (g *GlobalSwitchboard) Record(id ChainID) (*RouteRecord, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	cr, ok := g.chains[id]
	if !ok {
		return nil, false
	}
	return cr.rec, true
}

// RecomputeChain re-runs traffic engineering for a chain — e.g. after its
// traffic estimate changed or capacity was added — releasing the old
// reservations, committing new ones via 2PC, bumping the route version,
// and publishing the updated record (the Figure 10 dynamic-chaining
// operation). Existing connections keep their pinned paths; only new
// flows follow the new route.
func (g *GlobalSwitchboard) RecomputeChain(id ChainID, newForward, newReverse float64) (*RouteRecord, error) {
	g.mu.Lock()
	cr, ok := g.chains[id]
	tl := g.tl
	g.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("controller: unknown chain %s", id)
	}
	tl.Record("recompute requested")
	sp := g.recorder().Start("gs.recompute_chain", "", g.opParent.Load())
	sp.Event("recompute requested: " + string(id))
	defer sp.End()

	spec := cr.spec
	if newForward > 0 {
		spec.ForwardRate = newForward
	}
	if newReverse >= 0 {
		spec.ReverseRate = newReverse
	}

	// Release old reservations so the recompute sees true headroom.
	for vnfName, perSite := range cr.committedLoad {
		if v := g.vnf(vnfName); v != nil {
			v.ReleaseLoad(perSite)
		}
	}
	rec, load, err := g.computeAndCommit(spec, cr.rec.ChainLabel, cr.rec.EgressLabel, sp.ID())
	if err != nil {
		sp.Fail(err)
		// Restore the previous reservations on failure.
		tx := g.nextTx(id)
		for vnfName, perSite := range cr.committedLoad {
			if v := g.vnf(vnfName); v != nil {
				if perr := v.Prepare(tx, perSite); perr == nil {
					v.Commit(tx)
				}
			}
		}
		return nil, err
	}
	rec.SpanID = sp.ID()
	tl.Record("new route committed (2PC)")
	sp.Event("new route committed (2PC)")

	g.mu.Lock()
	rec.ExtraIngress = cr.rec.ExtraIngress // an AddEdgeSite may have run meanwhile
	cr.spec = spec
	cr.committedLoad = load
	g.updateChainLocked(id, cr, rec)
	g.mu.Unlock()

	if err := g.publishRoute(); err != nil {
		sp.Fail(err)
		return nil, err
	}
	tl.Record("new route published")
	sp.Event("new route published")
	if err := g.allocateInstances(cr); err != nil {
		sp.Fail(err)
		return nil, err
	}
	tl.Record("new instances allocated")
	sp.Event("new instances allocated")
	g.reroutes.Add(1)
	return rec, nil
}

// DeleteChain tears a chain down: VNF reservations are released, the
// chain's dedicated VNF instances are stopped, the chain label returns
// to the pool, and the route table without the chain is published, so
// Local Switchboards remove its rules and subscriptions. In-flight
// connections drop, as when a customer deactivates a service.
func (g *GlobalSwitchboard) DeleteChain(id ChainID) error {
	g.mu.Lock()
	cr, ok := g.chains[id]
	if !ok {
		g.mu.Unlock()
		return fmt.Errorf("controller: unknown chain %s", id)
	}
	g.storeChainLocked(id, nil)
	tl := g.tl
	g.mu.Unlock()

	for vnfName, perSite := range cr.committedLoad {
		if v := g.vnf(vnfName); v != nil {
			v.ReleaseLoad(perSite)
		}
	}
	// Instances go before the label is reused, so a new chain on the same
	// label stack never loses its own instances to this teardown.
	st := labels.Stack{Chain: cr.rec.ChainLabel, Egress: cr.rec.EgressLabel}
	for _, vnfName := range cr.rec.VNFs {
		if v := g.vnf(vnfName); v != nil {
			v.ReleaseChain(st)
		}
	}
	g.mu.Lock()
	g.alloc.Release(cr.rec.ChainLabel)
	g.mu.Unlock()
	if err := g.publishRoute(); err != nil {
		return err
	}
	if tl != nil {
		tl.Record(fmt.Sprintf("chain %s deleted", id))
	}
	return nil
}

// HandleSiteFailure responds to the loss of a site's compute: every VNF
// controller fails its deployment there, and every chain routed through
// the site is recomputed (the dead site has zero capacity, so the new
// routes avoid it). Connections pinned to failed instances are lost;
// new connections follow the recovered routes. Returns the chains that
// were rerouted and the first error encountered (recovery continues past
// per-chain errors such as chains with no alternative site).
func (g *GlobalSwitchboard) HandleSiteFailure(site simnet.SiteID) (rerouted []ChainID, firstErr error) {
	g.siteFailures.Add(1)
	start := time.Now()
	defer func() { g.reconv.Observe(time.Since(start)) }()
	prevParent := g.opParent.Load()
	sp := g.recorder().Start("gs.handle_site_failure", "", prevParent)
	sp.Event("site failure reported: " + string(site))
	g.opParent.Store(sp.ID())
	defer func() {
		g.opParent.Store(prevParent)
		sp.Fail(firstErr)
		sp.End()
	}()
	g.mu.Lock()
	vnfs := make([]*VNFController, 0, len(g.vnfs))
	for _, v := range g.vnfs {
		vnfs = append(vnfs, v)
	}
	var affected []ChainID
	for id, cr := range g.chains {
		uses := false
		for _, s := range cr.rec.Splits {
			if s.To == site || s.From == site {
				uses = true
				break
			}
		}
		if uses {
			affected = append(affected, id)
		}
	}
	tl := g.tl
	g.mu.Unlock()
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })

	for _, v := range vnfs {
		v.FailSite(site)
	}
	if tl != nil {
		tl.Record(fmt.Sprintf("site %s failed: %d chains affected", site, len(affected)))
	}
	sp.Event(fmt.Sprintf("deployments failed: %d chains affected", len(affected)))

	for _, id := range affected {
		if _, err := g.RecomputeChain(id, 0, -1); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("controller: rerouting %s after %s failed: %w", id, site, err)
			}
			continue
		}
		rerouted = append(rerouted, id)
	}
	if tl != nil {
		tl.Record(fmt.Sprintf("site %s failure handled: %d/%d chains rerouted", site, len(rerouted), len(affected)))
	}
	sp.Event(fmt.Sprintf("chains rerouted: %d/%d", len(rerouted), len(affected)))
	return rerouted, firstErr
}

// AddEdgeSite extends a chain to a new edge site (user mobility, Section
// 6): the new site's traffic enters the chain's nearest existing
// wide-area route. Returns the updated record.
func (g *GlobalSwitchboard) AddEdgeSite(id ChainID, site simnet.SiteID) (*RouteRecord, error) {
	g.mu.Lock()
	cr, ok := g.chains[id]
	tl := g.tl
	g.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("controller: unknown chain %s", id)
	}
	if _, err := g.ensureEdgeAt(site); err != nil {
		return nil, err
	}
	tl.Record("edge instance ready at new site")

	g.mu.Lock()
	rec := cr.rec
	for _, s := range rec.ExtraIngress {
		if s == site {
			g.mu.Unlock()
			return rec, nil
		}
	}
	updated := *rec
	updated.ExtraIngress = append(append([]simnet.SiteID(nil), rec.ExtraIngress...), site)
	g.updateChainLocked(id, cr, &updated)
	g.mu.Unlock()
	tl.Record("route extended with new edge site")

	if err := g.publishRoute(); err != nil {
		return nil, err
	}
	tl.Record("extended route published")
	return &updated, nil
}

// ConfigureChainEdges installs the customer's traffic classification at
// the ingress edge (each rule's Chain label is overwritten with the
// chain's label) plus a catch-all egress route toward the chain's egress
// site, and returns both edge instances. The caller registers local
// destination hosts on the egress instance.
func (g *GlobalSwitchboard) ConfigureChainEdges(rec *RouteRecord, matches []edge.MatchRule) (ingress, egress *edge.Instance, err error) {
	inLS, ok := g.Local(rec.IngressSite)
	if !ok {
		return nil, nil, fmt.Errorf("controller: no Local Switchboard at %s", rec.IngressSite)
	}
	egLS, ok := g.Local(rec.EgressSite)
	if !ok {
		return nil, nil, fmt.Errorf("controller: no Local Switchboard at %s", rec.EgressSite)
	}
	ingress = inLS.Edge()
	egress = egLS.Edge()
	if ingress == nil || egress == nil {
		return nil, nil, fmt.Errorf("controller: edges for chain %s not created", rec.Chain)
	}
	for _, m := range matches {
		m.Chain = rec.ChainLabel
		m.Name = string(rec.Chain)
		ingress.AddRule(m)
	}
	// Egress traffic is classified at the ingress side, so the egress
	// edge never installs a match rule for the chain — register it
	// explicitly so its per-chain egressed counter still exists.
	egress.RegisterChain(rec.ChainLabel, string(rec.Chain))
	ingress.AddEgressRoute(edge.EgressRoute{Egress: rec.EgressLabel})
	return ingress, egress, nil
}

// WaitForDataPath polls until the ingress-site forwarder has a rule for
// the chain's labels with a usable next hop, or the timeout expires. It
// smooths over bus propagation in tests and experiments.
func (g *GlobalSwitchboard) WaitForDataPath(rec *RouteRecord, at simnet.SiteID, timeout time.Duration) error {
	ls, ok := g.Local(at)
	if !ok {
		return fmt.Errorf("controller: no Local Switchboard at %s", at)
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if ls.rulesReady(rec) {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("controller: data path at %s not ready within %v", at, timeout)
}
