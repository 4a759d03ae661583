package controller

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"switchboard/internal/bus"
	"switchboard/internal/labels"
	"switchboard/internal/metrics"
	"switchboard/internal/obs"
	"switchboard/internal/simnet"
	"switchboard/internal/vnf"
)

// VNFController manages one VNF service: its instances across sites, its
// per-site capacity, and participation in Global Switchboard's two-phase
// commit for route installation (each VNF is an independently managed
// platform service per the paper's service-oriented design).
type VNFController struct {
	name    string
	net     *simnet.Network
	bus     *bus.Bus
	factory func() vnf.Function
	// loadPerUnit is the compute load the VNF imposes per traffic unit.
	loadPerUnit float64
	// labelAware reports whether instances understand Switchboard labels.
	labelAware bool
	// shared reuses one set of instances per site across chains.
	shared bool

	mu sync.Mutex
	// capacity and committed compute load per site.
	capacity  map[simnet.SiteID]float64
	committed map[simnet.SiteID]float64
	// failedCap remembers the pre-failure capacity of sites taken out by
	// FailSite, so ReviveSite can restore the deployment.
	failedCap map[simnet.SiteID]float64
	// prepared holds 2PC reservations not yet committed or aborted.
	prepared map[string]map[simnet.SiteID]float64
	// instances per site.
	instances map[simnet.SiteID][]*managedInstance
	// served records which chain label stacks were allocated instances
	// at each site, so failures can be republished per chain.
	served map[simnet.SiteID][]labels.Stack
	seq    int
	rec    *obs.Recorder
}

// SetRecorder attaches a control-plane span recorder: each
// AllocateForChain call is stamped as a span folding into the
// vnfctl.allocate_ms histogram. A nil recorder (the default) costs
// nothing.
func (v *VNFController) SetRecorder(rec *obs.Recorder) {
	v.mu.Lock()
	v.rec = rec
	v.mu.Unlock()
}

func (v *VNFController) recorder() *obs.Recorder {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.rec
}

// RegisterMetrics pre-creates the histogram this controller's
// allocation spans fold into (shared across VNF controllers on one
// registry):
//
//	vnfctl.allocate_ms histogram: AllocateForChain duration
func (v *VNFController) RegisterMetrics(r *metrics.Registry) {
	r.Histogram("vnfctl.allocate_ms")
}

type managedInstance struct {
	inst *vnf.Instance
	stop func()
	// st is the chain the instance was allocated for; dedicated is false
	// for shared (service-oriented) instances, which serve every chain.
	// Scaling (ScaleTo/RemoveInstance) keys on this attribution.
	st        labels.Stack
	dedicated bool
}

// VNFConfig configures a VNF controller.
type VNFConfig struct {
	Name        string
	Factory     func() vnf.Function
	LoadPerUnit float64
	LabelAware  bool
	// Capacity per site where the VNF chooses to deploy (S_f).
	Capacity map[simnet.SiteID]float64
	// SharedInstances lets one instance serve multiple chains at a site
	// (the service-oriented sharing of Section 7.2); only label-aware
	// VNFs can be shared. When false, each chain gets dedicated
	// instances.
	SharedInstances bool
}

// NewVNFController creates a controller for one VNF service.
func NewVNFController(net *simnet.Network, b *bus.Bus, cfg VNFConfig) *VNFController {
	capCopy := make(map[simnet.SiteID]float64, len(cfg.Capacity))
	for s, c := range cfg.Capacity {
		capCopy[s] = c
	}
	return &VNFController{
		name:        cfg.Name,
		net:         net,
		bus:         b,
		factory:     cfg.Factory,
		loadPerUnit: cfg.LoadPerUnit,
		labelAware:  cfg.LabelAware,
		shared:      cfg.SharedInstances && cfg.LabelAware,
		capacity:    capCopy,
		committed:   make(map[simnet.SiteID]float64),
		failedCap:   make(map[simnet.SiteID]float64),
		prepared:    make(map[string]map[simnet.SiteID]float64),
		instances:   make(map[simnet.SiteID][]*managedInstance),
		served:      make(map[simnet.SiteID][]labels.Stack),
	}
}

// Name returns the VNF service name.
func (v *VNFController) Name() string { return v.name }

// LoadPerUnit returns l_f.
func (v *VNFController) LoadPerUnit() float64 { return v.loadPerUnit }

// Sites returns the sites where the VNF is deployed with remaining
// capacity.
func (v *VNFController) Sites() map[simnet.SiteID]float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[simnet.SiteID]float64, len(v.capacity))
	for s, c := range v.capacity {
		out[s] = c - v.committed[s]
	}
	return out
}

// Capacity returns the total capacity per site (m_sf).
func (v *VNFController) Capacity() map[simnet.SiteID]float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[simnet.SiteID]float64, len(v.capacity))
	for s, c := range v.capacity {
		out[s] = c
	}
	return out
}

// ErrInsufficientCapacity is a 2PC rejection: the proposed route would
// overload the VNF at a site.
type ErrInsufficientCapacity struct {
	VNF  string
	Site simnet.SiteID
	Want float64
	Have float64
}

func (e *ErrInsufficientCapacity) Error() string {
	return fmt.Sprintf("vnf %s at %s: want %.2f, have %.2f", e.VNF, e.Site, e.Want, e.Have)
}

// Prepare is 2PC phase one: tentatively reserve compute load at sites.
// It rejects (with ErrInsufficientCapacity) if any site lacks headroom,
// which causes Global Switchboard to recompute the route.
func (v *VNFController) Prepare(tx string, load map[simnet.SiteID]float64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, dup := v.prepared[tx]; dup {
		return fmt.Errorf("controller: duplicate prepare %q at vnf %s", tx, v.name)
	}
	for site, l := range load {
		have := v.capacity[site] - v.committed[site] - v.pendingAt(site)
		if l > have+1e-9 {
			return &ErrInsufficientCapacity{VNF: v.name, Site: site, Want: l, Have: have}
		}
	}
	res := make(map[simnet.SiteID]float64, len(load))
	for site, l := range load {
		res[site] = l
	}
	v.prepared[tx] = res
	return nil
}

func (v *VNFController) pendingAt(site simnet.SiteID) float64 {
	total := 0.0
	for _, res := range v.prepared {
		total += res[site]
	}
	return total
}

// Commit is 2PC phase two: the reservation becomes committed load.
func (v *VNFController) Commit(tx string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	res, ok := v.prepared[tx]
	if !ok {
		return
	}
	delete(v.prepared, tx)
	for site, l := range res {
		v.committed[site] += l
	}
}

// Abort releases a reservation.
func (v *VNFController) Abort(tx string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.prepared, tx)
}

// ForceCommit records load without a capacity check. Used when admission
// control is disabled (baseline schemes), so later route computations
// still see the capacity consumed by earlier chains.
func (v *VNFController) ForceCommit(load map[simnet.SiteID]float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for site, l := range load {
		v.committed[site] += l
	}
}

// ReleaseLoad returns committed load (chain teardown).
func (v *VNFController) ReleaseLoad(load map[simnet.SiteID]float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for site, l := range load {
		v.committed[site] -= l
		if v.committed[site] < 0 {
			v.committed[site] = 0
		}
	}
}

// AllocateForChain ensures `count` instances of the VNF exist at the site
// for the given chain labels, starts them, and publishes their addresses
// and weights on the message bus so Local Switchboards can build rules
// (Figure 4, step 4). The gateway is the forwarder the instances attach
// to. Instances of label-unaware VNFs are dedicated to the label set.
func (v *VNFController) AllocateForChain(st labels.Stack, site simnet.SiteID, gateway simnet.Addr, count int) (err error) {
	if count <= 0 {
		count = 1
	}
	sp := v.recorder().Start("vnfctl."+v.name+".allocate", "vnfctl.allocate_ms", 0)
	sp.Event(fmt.Sprintf("allocate %d at %s for c%d", count, site, st.Chain))
	defer func() {
		sp.Fail(err)
		sp.End()
	}()
	infos := make([]InstanceInfo, 0, count)
	v.mu.Lock()
	if v.shared && len(v.instances[site]) >= count {
		// Service-oriented sharing: existing instances serve the new
		// chain too; just publish them under the chain's topic.
		for _, mi := range v.instances[site][:count] {
			infos = append(infos, InstanceInfo{
				Addr: mi.inst.Addr(), Weight: mi.inst.Weight(), LabelAware: true,
			})
		}
		v.served[site] = append(v.served[site], st)
		v.mu.Unlock()
		return v.bus.Publish(site, instancesTopic(st, v.name, site), infos, 64*len(infos))
	}
	for i := 0; i < count; i++ {
		v.seq++
		id := fmt.Sprintf("%s-%s-%d", v.name, site, v.seq)
		ep, err := v.net.Attach(simnet.Addr{Site: site, Host: id}, 1024)
		if err != nil {
			v.mu.Unlock()
			return fmt.Errorf("controller: attaching instance %s: %w", id, err)
		}
		inst := vnf.NewInstance(id, v.factory(), ep, gateway, 1.0)
		stop := inst.Start()
		v.instances[site] = append(v.instances[site], &managedInstance{inst: inst, stop: stop, st: st, dedicated: !v.shared})
		infos = append(infos, InstanceInfo{Addr: inst.Addr(), Weight: inst.Weight(), LabelAware: v.labelAware})
	}
	v.mu.Unlock()

	v.mu.Lock()
	v.served[site] = append(v.served[site], st)
	v.mu.Unlock()
	topic := instancesTopic(st, v.name, site)
	return v.bus.Publish(site, topic, infos, 64*len(infos))
}

// FailSite simulates the loss of the VNF's deployment at a site (compute
// failure, Section 7.3 "future work"): instances stop, the site's
// capacity drops to zero so traffic engineering avoids it, and empty
// instance lists are published so Local Switchboards remove the dead
// hops from their rules. Existing connections pinned to the failed
// instances are lost (state migration is out of scope, as in the paper);
// Global Switchboard's HandleSiteFailure reroutes chains so new
// connections recover.
func (v *VNFController) FailSite(site simnet.SiteID) {
	v.mu.Lock()
	for _, mi := range v.instances[site] {
		mi.stop()
	}
	delete(v.instances, site)
	if c, ok := v.capacity[site]; ok {
		v.failedCap[site] = c
	}
	delete(v.capacity, site)
	delete(v.committed, site)
	stacks := v.served[site]
	delete(v.served, site)
	v.mu.Unlock()
	for _, st := range stacks {
		_ = v.bus.Publish(site, instancesTopic(st, v.name, site), []InstanceInfo{}, 16)
	}
}

// ReleaseChain is a chain's teardown at this VNF: the instances
// dedicated to the label stack are stopped and detached at every site,
// and the stack is forgotten wherever it was served. Shared instances
// keep serving the other chains.
func (v *VNFController) ReleaseChain(st labels.Stack) {
	var retired []*managedInstance
	v.mu.Lock()
	for site, list := range v.instances {
		kept := list[:0]
		for _, mi := range list {
			if mi.dedicated && mi.st == st {
				retired = append(retired, mi)
			} else {
				kept = append(kept, mi)
			}
		}
		clear(list[len(kept):])
		v.instances[site] = kept
	}
	for site, stacks := range v.served {
		v.served[site] = slices.DeleteFunc(stacks, func(s labels.Stack) bool { return s == st })
	}
	v.mu.Unlock()
	for _, mi := range retired {
		mi.stop()
		v.net.Detach(mi.inst.Addr())
	}
}

// ReviveSite undoes FailSite: the deployment's pre-failure capacity
// returns (with no committed load — the failed instances are gone), so
// traffic engineering can place chains there again. Instances are
// re-created lazily by the next AllocateForChain.
func (v *VNFController) ReviveSite(site simnet.SiteID) {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.failedCap[site]
	if !ok {
		return
	}
	delete(v.failedCap, site)
	v.capacity[site] = c
	v.committed[site] = 0
}

// LabelAware reports whether instances handle Switchboard labels.
func (v *VNFController) LabelAware() bool { return v.labelAware }

// InstancesAt returns the live instances at a site.
func (v *VNFController) InstancesAt(site simnet.SiteID) []*vnf.Instance {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*vnf.Instance, 0, len(v.instances[site]))
	for _, mi := range v.instances[site] {
		out = append(out, mi.inst)
	}
	return out
}

// Stop terminates all instances.
func (v *VNFController) Stop() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, list := range v.instances {
		for _, mi := range list {
			mi.stop()
		}
	}
	v.instances = make(map[simnet.SiteID][]*managedInstance)
}

// instancesTopic is the bus topic carrying a VNF's instance list at a
// site for one chain, e.g. "/c100/e3/vnf_fw/site_A/instances".
func instancesTopic(st labels.Stack, vnfName string, site simnet.SiteID) bus.Topic {
	return chainTopic(st, vnfName, site, "instances")
}

// forwardersTopic carries the forwarders serving a VNF's instances at a
// site for one chain, published by the site's Local Switchboard.
func forwardersTopic(st labels.Stack, vnfName string, site simnet.SiteID) bus.Topic {
	return chainTopic(st, vnfName, site, "forwarders")
}

// chainTopic builds a per-chain topic without fmt: admission publishes
// and subscribes to several per chain.
func chainTopic(st labels.Stack, vnfName string, site simnet.SiteID, kind string) bus.Topic {
	return bus.MakeTopic(
		"c"+strconv.FormatUint(uint64(st.Chain), 10), "e"+strconv.FormatUint(uint64(st.Egress), 10),
		"vnf_"+vnfName, site, kind)
}
