package controller

import (
	"errors"
	"testing"
	"time"

	"switchboard/internal/bus"
	"switchboard/internal/edge"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
	"switchboard/internal/vnf"
)

// testbed wires a simulated WAN, the message bus, Global Switchboard, and
// Local Switchboards at each site.
type testbed struct {
	t      testing.TB
	net    *simnet.Network
	bus    *bus.Bus
	g      *GlobalSwitchboard
	locals map[simnet.SiteID]*LocalSwitchboard
}

func newTestbed(t testing.TB, delay time.Duration, sites ...simnet.SiteID) *testbed {
	t.Helper()
	net := simnet.New(1)
	for i, a := range sites {
		for _, b := range sites[i+1:] {
			net.SetPath(a, b, simnet.PathProfile{Delay: delay})
		}
	}
	b := bus.New(net)
	for _, s := range sites {
		if err := b.AddSite(s); err != nil {
			t.Fatalf("AddSite(%s): %v", s, err)
		}
	}
	g := NewGlobalSwitchboard(net, b, sites[0])
	tb := &testbed{t: t, net: net, bus: b, g: g, locals: make(map[simnet.SiteID]*LocalSwitchboard)}
	for _, s := range sites {
		ls, err := NewLocalSwitchboard(net, b, s, sites[0])
		if err != nil {
			t.Fatalf("NewLocalSwitchboard(%s): %v", s, err)
		}
		g.RegisterLocal(ls)
		tb.locals[s] = ls
	}
	t.Cleanup(func() {
		for _, ls := range tb.locals {
			ls.Close()
		}
		net.Close()
	})
	return tb
}

func (tb *testbed) registerSites(capacity float64, sites ...simnet.SiteID) {
	tb.t.Helper()
	for _, s := range sites {
		if _, err := tb.g.RegisterSite(s, capacity); err != nil {
			tb.t.Fatalf("RegisterSite(%s): %v", s, err)
		}
	}
}

func (tb *testbed) addVNF(name string, factory func() vnf.Function, loadPerUnit float64, labelAware bool, capacity map[simnet.SiteID]float64) *VNFController {
	tb.t.Helper()
	v := NewVNFController(tb.net, tb.bus, VNFConfig{
		Name: name, Factory: factory, LoadPerUnit: loadPerUnit,
		LabelAware: labelAware, Capacity: capacity,
	})
	tb.g.RegisterVNF(v)
	tb.t.Cleanup(v.Stop)
	return v
}

// host attaches a plain endpoint at a site.
func (tb *testbed) host(site simnet.SiteID, name string) *simnet.Endpoint {
	tb.t.Helper()
	ep, err := tb.net.Attach(simnet.Addr{Site: site, Host: name}, 4096)
	if err != nil {
		tb.t.Fatal(err)
	}
	return ep
}

func (tb *testbed) waitReady(rec *RouteRecord, sites ...simnet.SiteID) {
	tb.t.Helper()
	for _, s := range sites {
		if err := tb.g.WaitForDataPath(rec, s, 5*time.Second); err != nil {
			tb.t.Fatalf("data path at %s: %v", s, err)
		}
	}
}

const (
	clientIP = 0x0A000001 // 10.0.0.1
	serverIP = 0xC0A80001 // 192.168.0.1
)

func clientKey(port uint16) packet.FlowKey {
	return packet.FlowKey{SrcIP: clientIP, DstIP: serverIP, SrcPort: port, DstPort: 80, Proto: 6}
}

// sendAndWait pushes a packet to an edge instance and waits for delivery
// at the destination endpoint.
func sendAndWait(t *testing.T, from *simnet.Endpoint, to simnet.Addr, dst *simnet.Endpoint, p *packet.Packet) *packet.Packet {
	t.Helper()
	if err := from.Send(to, p, len(p.Payload)+40); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-dst.Inbox():
		return m.Payload.(*packet.Packet)
	case <-time.After(5 * time.Second):
		t.Fatalf("packet %v never delivered to %v", p.Key, dst.Addr())
		return nil
	}
}

// dumpDataPlane logs forwarder and edge counters at every site, for
// debugging lost-packet failures.
func (tb *testbed) dumpDataPlane() {
	tb.t.Helper()
	for site, ls := range tb.locals {
		ls.mu.Lock()
		for role, rr := range ls.forwarders {
			for _, rt := range rr.fwds {
				st := rt.f.Stats()
				tb.t.Logf("%s/%s (%s): rx=%d tx=%d drops=%d ruleMiss=%d flows=%d",
					site, rt.f.Name(), role, st.Rx, st.Tx, st.Drops, st.RuleMiss, rt.f.FlowCount())
			}
		}
		if ls.edgeInst != nil {
			tb.t.Logf("%s/edge: %+v", site, ls.edgeInst.Stats())
		}
		ls.mu.Unlock()
	}
}

func TestCreateChainEndToEnd(t *testing.T) {
	tb := newTestbed(t, 10*time.Millisecond, "A", "B", "C")
	tb.registerSites(1000, "A", "B", "C")
	tb.addVNF("fw", func() vnf.Function {
		return vnf.NewFirewall([]vnf.Prefix{{IP: 0x0A000000, Bits: 8}}, nil)
	}, 1.0, true, map[simnet.SiteID]float64{"B": 500})

	rec, err := tb.g.CreateChain(Spec{
		ID: "c1", IngressSite: "A", EgressSite: "C",
		VNFs: []string{"fw"}, ForwardRate: 10, ReverseRate: 5,
	})
	if err != nil {
		t.Fatalf("CreateChain: %v", err)
	}
	if rec.ChainLabel == 0 || rec.EgressLabel == 0 {
		t.Fatalf("labels not allocated: %+v", rec)
	}
	// The only fw site is B: stage 1 must be A→B, stage 2 B→C.
	if len(rec.Splits) != 2 {
		t.Fatalf("splits = %+v, want 2 stage edges", rec.Splits)
	}

	ingress, egress, err := tb.g.ConfigureChainEdges(rec, []edge.MatchRule{{
		Src: packet.Prefix{IP: 0x0A000000, Bits: 8},
	}})
	if err != nil {
		t.Fatalf("ConfigureChainEdges: %v", err)
	}
	tb.waitReady(rec, "A", "B", "C")

	client := tb.host("A", "client")
	server := tb.host("C", "server")
	egress.RegisterHost(serverIP, server.Addr())
	ingress.RegisterHost(clientIP, client.Addr())

	// Forward packet client→server through the chain.
	p := &packet.Packet{Key: clientKey(40000), Payload: []byte("GET /")}
	got := sendAndWait(t, client, ingress.Addr(), server, p)
	if got.Labeled {
		t.Error("delivered packet still labeled")
	}
	if string(got.Payload) != "GET /" {
		t.Errorf("payload = %q", got.Payload)
	}

	// Reverse packet server→client retraces the chain (same firewall).
	rp := &packet.Packet{Key: clientKey(40000).Reverse(), Payload: []byte("200 OK")}
	back := sendAndWait(t, server, egress.Addr(), client, rp)
	if string(back.Payload) != "200 OK" {
		t.Errorf("reverse payload = %q", back.Payload)
	}

	// The firewall instance at B processed both directions.
	insts := tb.g.vnf("fw").InstancesAt("B")
	if len(insts) != 1 {
		t.Fatalf("instances at B = %d, want 1", len(insts))
	}
	if st := insts[0].Stats(); st.Processed < 2 {
		t.Errorf("firewall processed %d packets, want ≥ 2", st.Processed)
	}
}

func TestCreateChainValidation(t *testing.T) {
	tb := newTestbed(t, time.Millisecond, "A", "B")
	tb.registerSites(100, "A", "B")
	if _, err := tb.g.CreateChain(Spec{ID: "", IngressSite: "A", EgressSite: "B", VNFs: []string{"x"}}); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := tb.g.CreateChain(Spec{ID: "c", IngressSite: "A", EgressSite: "B", VNFs: nil, ForwardRate: 1}); err == nil {
		t.Error("chain with no VNFs accepted")
	}
	if _, err := tb.g.CreateChain(Spec{ID: "c", IngressSite: "A", EgressSite: "B", VNFs: []string{"nope"}, ForwardRate: 1}); err == nil {
		t.Error("unknown VNF accepted")
	}
}

func TestCreateChainDuplicate(t *testing.T) {
	tb := newTestbed(t, time.Millisecond, "A", "B")
	tb.registerSites(1000, "A", "B")
	tb.addVNF("nat", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"B": 100})
	spec := Spec{ID: "c1", IngressSite: "A", EgressSite: "B", VNFs: []string{"nat"}, ForwardRate: 1}
	if _, err := tb.g.CreateChain(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.g.CreateChain(spec); err == nil {
		t.Error("duplicate chain accepted")
	}
}

func TestTwoPhaseCommitRejectTriggersRecompute(t *testing.T) {
	// VNF at sites B (closer, tiny capacity) and C (larger). The chain
	// needs more than B can hold; the 2PC rejection must push the
	// recompute to use C.
	tb := newTestbed(t, time.Millisecond, "A", "B", "C", "D")
	tb.registerSites(10000, "A", "B", "C", "D")
	v := tb.addVNF("fw", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"B": 5, "C": 5000})
	// Consume most of B's capacity out-of-band so TE (which sees
	// remaining capacity) still proposes B... instead simulate a race:
	// prepare a competing reservation directly.
	if err := v.Prepare("competing", map[simnet.SiteID]float64{"B": 4}); err != nil {
		t.Fatal(err)
	}
	// Chain load at the VNF = (10+0)+(10+0) = 20 per unit l_f=1: B can
	// never fit it, C can.
	rec, err := tb.g.CreateChain(Spec{
		ID: "c1", IngressSite: "A", EgressSite: "D",
		VNFs: []string{"fw"}, ForwardRate: 10,
	})
	if err != nil {
		t.Fatalf("CreateChain: %v", err)
	}
	for _, s := range rec.Splits {
		if s.Stage == 1 && s.To == "B" {
			t.Errorf("route still uses rejected site B: %+v", rec.Splits)
		}
	}
	usedC := false
	for _, s := range rec.Splits {
		if s.Stage == 1 && s.To == "C" && s.Weight > 0.9 {
			usedC = true
		}
	}
	if !usedC {
		t.Errorf("route does not use site C: %+v", rec.Splits)
	}
}

func TestRecomputeAddsSecondRoute(t *testing.T) {
	// Figure 10 scenario: chain initially fits at B; traffic doubles and
	// the recomputed route splits across B and C.
	tb := newTestbed(t, time.Millisecond, "A", "B", "C", "D")
	tb.registerSites(10000, "A", "B", "C", "D")
	tb.addVNF("nat", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"B": 25, "C": 25})

	rec, err := tb.g.CreateChain(Spec{
		ID: "c1", IngressSite: "A", EgressSite: "D",
		VNFs: []string{"nat"}, ForwardRate: 10, // load 20 fits in B
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 0 {
		t.Errorf("initial version = %d", rec.Version)
	}
	// Double the traffic: load 40 needs both sites.
	rec2, err := tb.g.RecomputeChain("c1", 20, 0)
	if err != nil {
		t.Fatalf("RecomputeChain: %v", err)
	}
	if rec2.Version != 1 {
		t.Errorf("recomputed version = %d, want 1", rec2.Version)
	}
	sites := rec2.StageSites(1)
	if len(sites) != 2 || sites["B"] <= 0 || sites["C"] <= 0 {
		t.Errorf("stage-1 sites after recompute = %v, want split across B and C", sites)
	}
}

func TestAddEdgeSite(t *testing.T) {
	tb := newTestbed(t, 5*time.Millisecond, "A", "B", "C", "E")
	tb.registerSites(1000, "A", "B", "C", "E")
	tb.addVNF("fw", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"B": 500})
	rec, err := tb.g.CreateChain(Spec{
		ID: "c1", IngressSite: "A", EgressSite: "C",
		VNFs: []string{"fw"}, ForwardRate: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, egress, err := tb.g.ConfigureChainEdges(rec, []edge.MatchRule{{}})
	if err != nil {
		t.Fatal(err)
	}
	tb.waitReady(rec, "A", "B", "C")

	// User moves to site E.
	rec2, err := tb.g.AddEdgeSite("c1", "E")
	if err != nil {
		t.Fatalf("AddEdgeSite: %v", err)
	}
	if !rec2.IsIngress("E") {
		t.Fatal("E not recorded as ingress")
	}
	tb.waitReady(rec2, "E")

	// Configure classification at the new edge and send traffic.
	lsE, _ := tb.g.Local("E")
	edgeE := lsE.Edge()
	edgeE.AddRule(edge.MatchRule{Chain: rec2.ChainLabel})
	edgeE.AddEgressRoute(edge.EgressRoute{Egress: rec2.EgressLabel})

	client := tb.host("E", "mobile")
	server := tb.host("C", "server")
	egress.RegisterHost(serverIP, server.Addr())
	edgeE.RegisterHost(clientIP, client.Addr())

	p := &packet.Packet{Key: clientKey(41000), Payload: []byte("hi")}
	got := sendAndWait(t, client, edgeE.Addr(), server, p)
	if string(got.Payload) != "hi" {
		t.Errorf("payload = %q", got.Payload)
	}
	// Reverse from server returns to the mobile client at E.
	rp := &packet.Packet{Key: clientKey(41000).Reverse(), Payload: []byte("yo")}
	back := sendAndWait(t, server, egress.Addr(), client, rp)
	if string(back.Payload) != "yo" {
		t.Errorf("reverse payload = %q", back.Payload)
	}
}

func TestChainWithLabelUnawareVNF(t *testing.T) {
	tb := newTestbed(t, time.Millisecond, "A", "B", "C")
	tb.registerSites(1000, "A", "B", "C")
	tb.addVNF("legacy", func() vnf.Function { return vnf.PassThrough{} }, 1.0, false,
		map[simnet.SiteID]float64{"B": 500})
	rec, err := tb.g.CreateChain(Spec{
		ID: "c1", IngressSite: "A", EgressSite: "C",
		VNFs: []string{"legacy"}, ForwardRate: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingress, egress, err := tb.g.ConfigureChainEdges(rec, []edge.MatchRule{{}})
	if err != nil {
		t.Fatal(err)
	}
	tb.waitReady(rec, "A", "B", "C")
	client := tb.host("A", "client")
	server := tb.host("C", "server")
	egress.RegisterHost(serverIP, server.Addr())
	p := &packet.Packet{Key: clientKey(42000), Payload: []byte("x")}
	got := sendAndWait(t, client, ingress.Addr(), server, p)
	if string(got.Payload) != "x" {
		t.Errorf("payload = %q", got.Payload)
	}
	// The forwarder must have stripped and re-affixed labels.
	lsB := tb.locals["B"]
	f, err := lsB.Forwarder("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats().Relabeled == 0 {
		t.Error("no relabel happened at the legacy VNF's forwarder")
	}
}

func TestTwoVNFChainSameSite(t *testing.T) {
	// Both VNFs land at site B (only option): distinct per-VNF
	// forwarders at B chain them locally.
	tb := newTestbed(t, time.Millisecond, "A", "B", "C")
	tb.registerSites(1000, "A", "B", "C")
	tb.addVNF("fw", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"B": 500})
	tb.addVNF("nat", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"B": 500})
	rec, err := tb.g.CreateChain(Spec{
		ID: "c1", IngressSite: "A", EgressSite: "C",
		VNFs: []string{"fw", "nat"}, ForwardRate: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingress, egress, err := tb.g.ConfigureChainEdges(rec, []edge.MatchRule{{}})
	if err != nil {
		t.Fatal(err)
	}
	tb.waitReady(rec, "A", "B", "C")
	client := tb.host("A", "client")
	server := tb.host("C", "server")
	egress.RegisterHost(serverIP, server.Addr())
	ingress.RegisterHost(clientIP, client.Addr())
	p := &packet.Packet{Key: clientKey(43000), Payload: []byte("x")}
	sendAndWait(t, client, ingress.Addr(), server, p)
	// Conformity: both VNFs processed the packet.
	for _, name := range []string{"fw", "nat"} {
		insts := tb.g.vnf(name).InstancesAt("B")
		if len(insts) != 1 || insts[0].Stats().Processed == 0 {
			t.Errorf("VNF %s did not process the packet", name)
		}
	}
	// And the reverse direction traverses both again.
	rp := &packet.Packet{Key: clientKey(43000).Reverse(), Payload: []byte("y")}
	sendAndWait(t, server, egress.Addr(), client, rp)
	for _, name := range []string{"fw", "nat"} {
		insts := tb.g.vnf(name).InstancesAt("B")
		if insts[0].Stats().Processed < 2 {
			t.Errorf("VNF %s processed %d, want 2 (both directions)", name, insts[0].Stats().Processed)
		}
	}
}

func TestTimelineRecordsChainCreation(t *testing.T) {
	tb := newTestbed(t, time.Millisecond, "A", "B")
	tb.registerSites(1000, "A", "B")
	tb.addVNF("fw", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"B": 500})
	tl := NewTimeline(128)
	tb.g.SetTimeline(tl)
	if _, err := tb.g.CreateChain(Spec{
		ID: "c1", IngressSite: "A", EgressSite: "B",
		VNFs: []string{"fw"}, ForwardRate: 1,
	}); err != nil {
		t.Fatal(err)
	}
	events := tl.Drain()
	if len(events) < 4 {
		t.Fatalf("timeline has %d events, want ≥ 4: %+v", len(events), events)
	}
	for i := 1; i < len(events); i++ {
		if events[i].At.Before(events[i-1].At) {
			t.Error("timeline events out of order")
		}
	}
}

func TestVNFControllerPrepareCommitAbort(t *testing.T) {
	tb := newTestbed(t, time.Millisecond, "A")
	v := tb.addVNF("fw", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"A": 10})
	if err := v.Prepare("t1", map[simnet.SiteID]float64{"A": 6}); err != nil {
		t.Fatal(err)
	}
	// Pending reservation counts against capacity.
	if err := v.Prepare("t2", map[simnet.SiteID]float64{"A": 6}); err == nil {
		t.Error("over-committing prepare accepted")
	}
	v.Abort("t1")
	if err := v.Prepare("t3", map[simnet.SiteID]float64{"A": 6}); err != nil {
		t.Errorf("prepare after abort failed: %v", err)
	}
	v.Commit("t3")
	if got := v.Sites()["A"]; got != 4 {
		t.Errorf("remaining capacity = %v, want 4", got)
	}
	v.ReleaseLoad(map[simnet.SiteID]float64{"A": 6})
	if got := v.Sites()["A"]; got != 10 {
		t.Errorf("remaining capacity after release = %v, want 10", got)
	}
}

func TestNoRouteWhenNoCapacity(t *testing.T) {
	tb := newTestbed(t, time.Millisecond, "A", "B")
	tb.registerSites(1000, "A", "B")
	tb.addVNF("fw", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"B": 1}) // chain needs 2×fwd=2 > 1
	_, err := tb.g.CreateChain(Spec{
		ID: "c1", IngressSite: "A", EgressSite: "B",
		VNFs: []string{"fw"}, ForwardRate: 1,
	})
	if !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}
