package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/edge"
	"switchboard/internal/experiments"
	"switchboard/internal/forwarder"
	"switchboard/internal/labels"
	"switchboard/internal/model"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
	"switchboard/internal/te"
	"switchboard/internal/vnf"
)

// Addresses the workloads use. Clients sit inside 10.0.0.0/8, which the
// firewall trusts; the server and the NAT's public address are outside.
const (
	natPublicIP = 0xC6336401 // 198.51.100.1
	serverIP    = 0x0B000001 // 11.0.0.1
	serverPort  = 80
	insideNet   = 0x0A000000
)

// edgeRole is the role name under which a Local Switchboard runs the
// forwarder that serves its edge instance.
const edgeRole = "edge"

// Readiness polling: how often the benchmark looks at the forwarders'
// rules while it waits for a chain to become usable or to disappear.
const pollEvery = time.Millisecond

// deployment is a Switchboard deployment stood up in-process, plus the
// benchmark's handles on the forwarders it has looked at. It is used from
// one goroutine.
type deployment struct {
	bed  *experiments.Bed
	fwds map[siteRole]*forwarder.Forwarder
	// order lists fwds' keys in the order they were first seen, so that
	// sums and checks over them are deterministic.
	order []siteRole
}

type siteRole struct {
	site simnet.SiteID
	role string
}

// newDeployment builds a Bed over the sites with zero WAN delay and
// registers each site with ample compute capacity.
func newDeployment(seed int64, sites ...simnet.SiteID) (*deployment, error) {
	bed, err := experiments.NewBed(seed, 0, sites...)
	if err != nil {
		return nil, fmt.Errorf("building deployment: %w", err)
	}
	for _, s := range sites {
		if _, err := bed.G.RegisterSite(s, 1e9); err != nil {
			bed.Close()
			return nil, fmt.Errorf("registering site %s: %w", s, err)
		}
	}
	return &deployment{bed: bed, fwds: make(map[siteRole]*forwarder.Forwarder)}, nil
}

func (d *deployment) close() { d.bed.Close() }

// fwd returns the forwarder a site's Local Switchboard runs for a role.
func (d *deployment) fwd(site simnet.SiteID, role string) (*forwarder.Forwarder, error) {
	k := siteRole{site, role}
	if f, ok := d.fwds[k]; ok {
		return f, nil
	}
	ls, ok := d.bed.G.Local(site)
	if !ok {
		return nil, fmt.Errorf("no Local Switchboard at %s", site)
	}
	f, err := ls.Forwarder(role)
	if err != nil {
		return nil, err
	}
	d.fwds[k] = f
	d.order = append(d.order, k)
	return f, nil
}

// ruleNeed is one forwarder that must hold a chain's rule before the
// chain's data path is usable, with the hops the rule must have.
type ruleNeed struct {
	site       simnet.SiteID
	role       string
	next, prev bool
}

// ruleNeeds lists the forwarders on a route: the edge forwarder at the
// ingress (needing a next hop) and egress (needing a previous hop), and
// the VNF forwarder at every site that hosts a stage (needing a next hop).
func ruleNeeds(rec *controller.RouteRecord) []ruleNeed {
	var out []ruleNeed
	if rec.IngressSite == rec.EgressSite {
		out = append(out, ruleNeed{rec.IngressSite, edgeRole, true, true})
	} else {
		out = append(out, ruleNeed{rec.IngressSite, edgeRole, true, false},
			ruleNeed{rec.EgressSite, edgeRole, false, true})
	}
	for j, name := range rec.VNFs {
		for _, s := range rec.Splits {
			if s.Stage == j+1 && s.Weight > 0 && !hasNeed(out, s.To, name) {
				out = append(out, ruleNeed{s.To, name, true, false})
			}
		}
	}
	return out
}

func hasNeed(ns []ruleNeed, site simnet.SiteID, role string) bool {
	for _, n := range ns {
		if n.site == site && n.role == role {
			return true
		}
	}
	return false
}

func stackOf(rec *controller.RouteRecord) labels.Stack {
	return labels.Stack{Chain: rec.ChainLabel, Egress: rec.EgressLabel}
}

// ready reports whether every forwarder on the route holds the chain's
// rule with a local element and the hops it needs, and when the last of
// those rules was installed.
func (d *deployment) ready(st labels.Stack, needs []ruleNeed) (bool, time.Time, error) {
	var last time.Time
	for _, n := range needs {
		f, err := d.fwd(n.site, n.role)
		if err != nil {
			return false, last, err
		}
		local, next, prev, ok := f.RuleInfo(st)
		if !ok || local == 0 || (n.next && next == 0) || (n.prev && prev == 0) {
			return false, last, nil
		}
		if at, ok := f.RuleInstalledAt(st); ok && at.After(last) {
			last = at
		}
	}
	return true, last, nil
}

// errNotReady marks a chain whose data path did not become usable in
// time: the lost-update fault in the Local Switchboard's rule install.
var errNotReady = errors.New("data path not ready")

// waitReady polls until the chain's data path is usable and returns the
// instant the last rule on the route was installed.
func (d *deployment) waitReady(rec *controller.RouteRecord, timeout time.Duration) (time.Time, error) {
	st, needs := stackOf(rec), ruleNeeds(rec)
	deadline := time.Now().Add(timeout)
	for {
		ok, last, err := d.ready(st, needs)
		if err != nil {
			return last, err
		}
		if ok {
			return last, nil
		}
		if time.Now().After(deadline) {
			return last, fmt.Errorf("chain %s: %w within %v", rec.Chain, errNotReady, timeout)
		}
		time.Sleep(pollEvery)
	}
}

// waitGone polls until no forwarder the benchmark knows holds a rule for
// the stack, and fails if one still does at the deadline.
func (d *deployment) waitGone(st labels.Stack, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		left := leftoverRule(d, st)
		if left == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("forwarder %s still holds a rule for deleted stack %v after %v", left, st, timeout)
		}
		time.Sleep(pollEvery)
	}
}

// leftoverRule names a known forwarder that holds a rule for the stack,
// or returns "".
func leftoverRule(d *deployment, st labels.Stack) string {
	for _, k := range d.order {
		if _, _, _, ok := d.fwds[k].RuleInfo(st); ok {
			return string(k.site) + "/" + k.role
		}
	}
	return ""
}

// admission is one chain admission, timed in Unix nanoseconds: the
// CreateChain call, its return, and the install of the last rule the
// route needs.
type admission struct {
	rec                   *controller.RouteRecord
	start, created, ready int64
}

// admit creates a chain and waits for its data path. A chain whose data
// path is not usable by the deadline is deleted and created again under
// a fresh ID; faults counts those attempts. op identifies the operation
// in the traced run's spans.
func (d *deployment) admit(spec controller.Spec, timeout time.Duration, tr *tracer, op uint64, faults *int) (admission, error) {
	for attempt := 0; ; attempt++ {
		s := spec
		if attempt > 0 {
			s.ID = controller.ChainID(fmt.Sprintf("%s-r%d", spec.ID, attempt))
		}
		a := admission{start: tr.beginCreate(op)}
		rec, err := d.bed.G.CreateChain(s)
		a.created = tr.endCreate(op, a.start)
		if err != nil {
			return a, fmt.Errorf("creating chain %s: %w", s.ID, err)
		}
		a.rec = rec
		last, err := d.waitReady(rec, timeout)
		if err == nil {
			a.ready = max(last.UnixNano(), a.start)
			tr.record(layerReadyWait, op, a.created, max(a.ready, a.created))
			return a, nil
		}
		if attempt == 3 || !errors.Is(err, errNotReady) {
			return a, err
		}
		*faults++
		if err := d.deleteGone(rec); err != nil {
			return a, err
		}
	}
}

// deleteGone deletes a chain and waits until no forwarder holds its rule.
func (d *deployment) deleteGone(rec *controller.RouteRecord) error {
	if err := d.bed.G.DeleteChain(rec.Chain); err != nil {
		return fmt.Errorf("deleting chain %s: %w", rec.Chain, err)
	}
	return d.waitGone(stackOf(rec), 2*time.Second)
}

// natFactory returns NATs behind one public address. Instances alternate
// between two port ranges, so the two instances a site runs for a chain
// never hand out the same port.
func natFactory(tr *tracer) func() vnf.Function {
	var n atomic.Int32
	return func() vnf.Function {
		base := uint16(20000)
		if n.Add(1)%2 == 0 {
			base = 42000
		}
		return tr.wrapVNF(layerNAT, vnf.NewNATWithBase(natPublicIP, base))
	}
}

// firewallFactory returns the firewall the workloads deploy: connections
// opened from the inside network are tracked, everything else is refused.
func firewallFactory(tr *tracer) func() vnf.Function {
	return func() vnf.Function {
		return tr.wrapVNF(layerFirewall, vnf.NewFirewall([]vnf.Prefix{{IP: insideNet, Bits: 8}}, nil))
	}
}

// routeThrough installs the traced run's Router hook: the function the
// Global Switchboard calls by default, timed.
func routeThrough(g *controller.GlobalSwitchboard, tr *tracer) {
	if tr == nil {
		return
	}
	g.Router = func(nw *model.Network) (*model.Routing, error) {
		tr.solveEnter()
		r := te.SolveDP(nw, te.DPOptions{})
		tr.solveExit()
		return r, nil
	}
}

// dataPathSends sums the packets handed to the network by every
// forwarder, edge instance and VNF instance at the sites: with the
// clients' and servers' own sends, the packets behind the network's
// message count.
func (d *deployment) dataPathSends(sites []simnet.SiteID, vnfs []*controller.VNFController) uint64 {
	var n uint64
	for _, k := range d.order {
		n += d.fwds[k].Stats().Tx
	}
	for _, s := range sites {
		if ls, ok := d.bed.G.Local(s); ok {
			if e := ls.Edge(); e != nil {
				st := e.Stats()
				n += st.Ingressed + st.Egressed
			}
		}
		for _, v := range vnfs {
			for _, inst := range v.InstancesAt(s) {
				n += inst.Stats().Processed
			}
		}
	}
	return n
}

// dataPathDrops sums the packets dropped by forwarders and VNF instances.
func (d *deployment) dataPathDrops(sites []simnet.SiteID, vnfs []*controller.VNFController) (fwd, vnfDrops uint64) {
	for _, k := range d.order {
		fwd += d.fwds[k].Stats().Drops
	}
	for _, s := range sites {
		for _, v := range vnfs {
			for _, inst := range v.InstancesAt(s) {
				vnfDrops += inst.Stats().Dropped
			}
		}
	}
	return fwd, vnfDrops
}

// edgeAt returns a site's edge instance.
func (d *deployment) edgeAt(site simnet.SiteID) (*edge.Instance, error) {
	ls, ok := d.bed.G.Local(site)
	if !ok || ls.Edge() == nil {
		return nil, fmt.Errorf("no edge instance at %s", site)
	}
	return ls.Edge(), nil
}

// payload layout of every request and response: sequence number, then
// the client's send time in nanoseconds.
const payloadLen = 16

func wireSize(p *packet.Packet) int { return len(p.Payload) + 40 }
