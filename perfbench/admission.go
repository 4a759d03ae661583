package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/edge"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
)

// admission_churn: six sites, firewall capacity at A/C/E and NAT
// capacity at B/D/F. Each chain carries one unit forward and one back,
// so it places four units of load on each VNF; 1,000 standing chains
// fill two thirds of the 3 × 2,000 units each VNF has.
var churnSites = []simnet.SiteID{"A", "B", "C", "D", "E", "F"}

const (
	churnStanding = 1000
	churnRate     = 1.0
	churnCapacity = 2000.0
	// churnReadyTimeout bounds the wait for a new chain's data path. A
	// normal admission at 1,000 standing chains is ready within 10 ms; a
	// chain hit by the lost rule update is never ready.
	churnReadyTimeout = 100 * time.Millisecond
	// churnChecks is how many times the measured phase stops for the full
	// capacity and label checks (their CPU is not counted).
	churnChecks = 4
	// probes is how many standing chains carry a round trip at the end.
	probes = 8
)

type churnWorkload struct {
	opsPerSecond int // measured operations per second of --seconds
	warm         int // churn steps before measuring
}

type churnRun struct {
	d        *deployment
	tr       *tracer
	rng      *rand.Rand
	fw, nat  *controller.VNFController
	capacity vnfSites
	standing []*controller.RouteRecord // oldest first
	next     int                       // next chain number
	faults   int

	// Route-feed subscriber of the traced run.
	records, recordDrops atomic.Uint64
}

func (r *churnRun) spec() controller.Spec {
	r.next++
	return controller.Spec{
		ID:          controller.ChainID(fmt.Sprintf("c%d", r.next)),
		IngressSite: churnSites[r.rng.Intn(len(churnSites))],
		EgressSite:  churnSites[r.rng.Intn(len(churnSites))],
		VNFs:        []string{"fw", "nat"},
		ForwardRate: churnRate, ReverseRate: churnRate,
	}
}

func setupChurn(seed int64, tr *tracer) (*churnRun, error) {
	d, err := newDeployment(seed, churnSites...)
	if err != nil {
		return nil, err
	}
	r := &churnRun{d: d, tr: tr, rng: rand.New(rand.NewSource(seed))}
	routeThrough(d.bed.G, tr)
	r.capacity = vnfSites{
		"fw":  {"A": churnCapacity, "C": churnCapacity, "E": churnCapacity},
		"nat": {"B": churnCapacity, "D": churnCapacity, "F": churnCapacity},
	}
	r.fw = d.bed.AddVNF(controller.VNFConfig{
		Name: "fw", Factory: firewallFactory(tr), LoadPerUnit: 1, LabelAware: true,
		SharedInstances: true, Capacity: r.capacity["fw"],
	})
	r.nat = d.bed.AddVNF(controller.VNFConfig{
		Name: "nat", Factory: natFactory(tr), LoadPerUnit: 1, LabelAware: true,
		SharedInstances: true, Capacity: r.capacity["nat"],
	})
	for len(r.standing) < churnStanding {
		a, err := d.admit(r.spec(), churnReadyTimeout, nil, 0, &r.faults)
		if err != nil {
			d.close()
			return nil, err
		}
		r.standing = append(r.standing, a.rec)
	}
	return r, nil
}

// subscribeRoutes counts the route records the bus delivers on the
// route feed, the way a Local Switchboard receives them.
func (r *churnRun) subscribeRoutes() (stop func(), err error) {
	g := r.d.bed.G
	// The queue holds many publications so the counting goroutine keeps
	// up; a publication shed anyway is counted and reported.
	sub, err := r.d.bed.Bus.Subscribe(g.Site(), g.RoutesTopic(), 1024)
	if err != nil {
		return nil, err
	}
	sub.SetOnDrop(func() { r.recordDrops.Add(1) })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pub := range sub.Ch() {
			switch recs := pub.Payload.(type) {
			case []*controller.RouteRecord:
				r.records.Add(uint64(len(recs)))
			case *controller.RouteRecord:
				r.records.Add(1)
			}
		}
	}()
	return func() { sub.Cancel(); wg.Wait() }, nil
}

// step is one churn operation: delete the oldest chain, wait until no
// forwarder holds its rule, then admit a new chain and wait until its
// data path is usable. It returns the admission latency.
func (r *churnRun) step(op uint64) (time.Duration, error) {
	old := r.standing[0]
	r.standing = r.standing[1:]
	t0 := now()
	if err := r.d.bed.G.DeleteChain(old.Chain); err != nil {
		return 0, fmt.Errorf("deleting chain %s: %w", old.Chain, err)
	}
	t1 := now()
	r.tr.record(layerDelete, op, t0, t1)
	if err := r.d.waitGone(stackOf(old), 2*time.Second); err != nil {
		return 0, err
	}
	r.tr.record(layerCleanupWait, op, t1, now())
	a, err := r.d.admit(r.spec(), churnReadyTimeout, r.tr, op, &r.faults)
	if err != nil {
		return 0, err
	}
	if err := checkRoute(a.rec, r.capacity); err != nil {
		return 0, err
	}
	r.standing = append(r.standing, a.rec)
	r.tr.record(layerOp, op, t0, now())
	return time.Duration(a.ready - a.start), nil
}

// checkStanding runs the checks over every standing chain: the Global
// Switchboard still holds each route as admitted, labels are distinct,
// and the VNF controllers' remaining capacity matches the routes.
func (r *churnRun) checkStanding() error {
	for _, rec := range r.standing {
		cur, ok := r.d.bed.G.Record(rec.Chain)
		if !ok || cur != rec {
			return fmt.Errorf("chain %s: route changed or vanished while standing", rec.Chain)
		}
	}
	if err := checkLabels(r.standing); err != nil {
		return err
	}
	load := routeLoads(r.standing, 2*churnRate, map[string]float64{"fw": 1, "nat": 1})
	return checkCapacity(r.capacity, load, vnfSites{"fw": r.fw.Sites(), "nat": r.nat.Sites()})
}

// probe sends one round trip through each of a sample of standing
// chains and checks that it returns and that the server sees the
// source rewritten by the NAT. It returns the flows and stack it used.
func (r *churnRun) probe() ([]packet.FlowKey, *controller.RouteRecord, error) {
	net := r.d.bed.Net
	clients := make(map[simnet.SiteID]*simnet.Endpoint)
	servers := make(map[simnet.SiteID]*simnet.Endpoint)
	attach := func(m map[simnet.SiteID]*simnet.Endpoint, site simnet.SiteID, host string) (*simnet.Endpoint, error) {
		if ep, ok := m[site]; ok {
			return ep, nil
		}
		ep, err := net.Attach(simnet.Addr{Site: site, Host: host}, 16)
		m[site] = ep
		return ep, err
	}
	var flows []packet.FlowKey
	var last *controller.RouteRecord
	for i, idx := range r.rng.Perm(len(r.standing))[:probes] {
		rec := r.standing[idx]
		in, err := r.d.edgeAt(rec.IngressSite)
		if err != nil {
			return nil, nil, err
		}
		eg, err := r.d.edgeAt(rec.EgressSite)
		if err != nil {
			return nil, nil, err
		}
		client, err := attach(clients, rec.IngressSite, "probe-client")
		if err != nil {
			return nil, nil, err
		}
		server, err := attach(servers, rec.EgressSite, "probe-server")
		if err != nil {
			return nil, nil, err
		}
		key := packet.FlowKey{
			SrcIP: insideNet | 0x20000 | uint32(i+1), DstIP: serverIP + 0x10000 + uint32(i),
			SrcPort: uint16(40000 + i), DstPort: serverPort, Proto: 6,
		}
		in.AddRule(edge.MatchRule{Src: packet.Prefix{IP: key.SrcIP, Bits: 32}, Chain: rec.ChainLabel, Name: string(rec.Chain)})
		in.AddEgressRoute(edge.EgressRoute{Dst: packet.Prefix{IP: key.DstIP, Bits: 32}, Egress: rec.EgressLabel})
		in.RegisterHost(key.SrcIP, client.Addr())
		eg.RegisterHost(key.DstIP, server.Addr())
		req := &packet.Packet{Key: key, Payload: make([]byte, payloadLen)}
		if err := client.Send(in.Addr(), req, wireSize(req)); err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", rec.Chain, err)
		}
		got, err := recvOne(server)
		if err != nil {
			return nil, nil, fmt.Errorf("probe through %s: request: %w", rec.Chain, err)
		}
		if err := checkRequest(key, got.Key, natPublicIP); err != nil {
			return nil, nil, fmt.Errorf("probe through %s: %w", rec.Chain, err)
		}
		got.Key = got.Key.Reverse()
		if err := server.Send(eg.Addr(), got, wireSize(got)); err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", rec.Chain, err)
		}
		back, err := recvOne(client)
		if err != nil {
			return nil, nil, fmt.Errorf("probe through %s: response: %w", rec.Chain, err)
		}
		if err := checkResponse(key, back.Key); err != nil {
			return nil, nil, fmt.Errorf("probe through %s: %w", rec.Chain, err)
		}
		flows = append(flows, key)
		last = rec
	}
	return flows, last, nil
}

// recvOne waits up to two seconds for one packet.
func recvOne(ep *simnet.Endpoint) (*packet.Packet, error) {
	select {
	case m, ok := <-ep.Inbox():
		if !ok {
			return nil, fmt.Errorf("endpoint closed")
		}
		if p, ok := m.Payload.(*packet.Packet); ok {
			return p, nil
		}
		return nil, fmt.Errorf("unexpected %T", m.Payload)
	case <-time.After(2 * time.Second):
		return nil, fmt.Errorf("nothing arrived within 2s")
	}
}

// runChurn runs admission_churn.
func runChurn(w churnWorkload, cfg config) (*report, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	r, err := setupChurn(cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	defer r.d.close()
	var stopSub func()
	if cfg.trace {
		if stopSub, err = r.subscribeRoutes(); err != nil {
			return nil, err
		}
		defer func() { stopSub() }()
	}
	op := uint64(0)
	for i := 0; i < w.warm; i++ {
		op++
		if _, err := r.step(op); err != nil {
			return nil, err
		}
	}
	n := w.opsPerSecond * cfg.seconds
	res := &report{attempted: n, ph: newPhase(), lat: make([]int64, n)}
	res.setup = time.Since(procStart)
	faults0 := r.faults
	half := n
	if cfg.trace {
		half = n / 2
		res.layerPh = newPhase()
	}
	every := max(1, n/churnChecks)
	busStats := r.d.bed.Bus.Stats
	res.ph.start()
	res.msgs0 = r.d.bed.Net.Stats().MsgsSent
	var rec0, wan0 uint64
	for i := 0; i < n; i++ {
		if i == half {
			res.ph.stop()
			res.msgs1 = r.d.bed.Net.Stats().MsgsSent
			tr.measureOps(true)
			rec0, wan0 = r.records.Load(), busStats().WANMessages
			res.layerPh.start()
		}
		op++
		lat, err := r.step(op)
		if err != nil {
			return res, err
		}
		res.lat[i] = int64(lat)
		if (i+1)%every == 0 {
			ph := res.ph
			if i >= half {
				ph = res.layerPh
			}
			ph.exclude(func() { err = r.checkStanding() })
			if err != nil {
				return res, err
			}
		}
	}
	if cfg.trace {
		res.layerPh.stop()
		tr.measureOps(false)
		// The subscriber drains asynchronously; let it catch up.
		time.Sleep(50 * time.Millisecond)
		ops := float64(n - half)
		res.layers = map[string]metric{
			"bus.route_records_per_op": {float64(r.records.Load()-rec0) / ops, "records/op"},
			"bus.wan_msgs_per_op":      {float64(busStats().WANMessages-wan0) / ops, "msgs/op"},
		}
		if d := r.recordDrops.Load(); d > 0 {
			res.notes = append(res.notes, fmt.Sprintf("route-feed subscriber shed %d publications", d))
		}
	} else {
		res.ph.stop()
		res.msgs1 = r.d.bed.Net.Stats().MsgsSent
	}
	res.liveHeap = liveHeapAfterGC()
	res.faults = r.faults - faults0
	if err := r.checkStanding(); err != nil {
		return res, err
	}
	vnfs := []*controller.VNFController{r.fw, r.nat}
	msgs0, sends0 := r.d.bed.Net.Stats().MsgsSent, r.d.dataPathSends(churnSites, vnfs)
	tr.enable(true) // time the VNFs on the probes' path
	flows, rec, err := r.probe()
	tr.enable(false)
	if err != nil {
		return res, err
	}
	if cfg.trace {
		pkts := r.d.dataPathSends(churnSites, vnfs) - sends0 + 2*probes
		res.pktsPerMsg = float64(pkts) / float64(r.d.bed.Net.Stats().MsgsSent-msgs0)
		res.replay = replay(flows, stackOf(rec), 1, cfg.seed)
	}
	res.tr = tr
	return res, nil
}
