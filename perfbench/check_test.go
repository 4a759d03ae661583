package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/forwarder"
	"switchboard/internal/labels"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
)

func TestAffinityMapCatchesSwappedNATPort(t *testing.T) {
	a := newAffinityMap(3)
	for flow, port := range []uint16{20000, 42000} {
		if err := a.observe(flow, port); err != nil {
			t.Fatalf("first binding of flow %d: %v", flow, err)
		}
	}
	if err := a.observe(0, 20000); err != nil {
		t.Fatalf("same binding again: %v", err)
	}
	if err := a.observe(0, 42000); err == nil || !strings.Contains(err.Error(), "moved") {
		t.Errorf("flow 0 swapped to flow 1's port: got %v, want a moved-port error", err)
	}
	if err := a.observe(2, 20000); err == nil || !strings.Contains(err.Error(), "share") {
		t.Errorf("flow 2 given flow 0's port: got %v, want a shared-port error", err)
	}
}

func TestLedgerCatchesDroppedAndDuplicateResponses(t *testing.T) {
	l := newLedger(4)
	for _, seq := range []uint64{0, 1, 3} {
		if err := l.receive(seq, 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.complete(4); err == nil {
		t.Error("a dropped response went unnoticed")
	}
	if err := l.receive(1, 4); err == nil {
		t.Error("a second response to one request went unnoticed")
	}
	if err := l.receive(7, 4); err == nil {
		t.Error("a response to a request never sent went unnoticed")
	}
	if err := l.receive(2, 4); err != nil {
		t.Fatal(err)
	}
	if err := l.complete(4); err != nil {
		t.Errorf("all answered: %v", err)
	}
}

func TestRequestAndResponseChecks(t *testing.T) {
	orig := packet.FlowKey{SrcIP: insideNet | 7, DstIP: serverIP, SrcPort: 5555, DstPort: serverPort, Proto: 6}
	natted := orig
	natted.SrcIP, natted.SrcPort = natPublicIP, 20001
	if err := checkRequest(orig, natted, natPublicIP); err != nil {
		t.Errorf("translated request: %v", err)
	}
	if err := checkRequest(orig, orig, natPublicIP); err == nil {
		t.Error("a request that bypassed the NAT went unnoticed")
	}
	if err := checkResponse(orig, orig.Reverse()); err != nil {
		t.Errorf("reversed response: %v", err)
	}
	bad := orig.Reverse()
	bad.DstPort = natted.SrcPort
	if err := checkResponse(orig, bad); err == nil {
		t.Error("a response still carrying the NAT port went unnoticed")
	}
}

// route builds a two-VNF route record: fw at fwSite, nat at natSite.
func route(id string, label uint32, in, fwSite, natSite, eg simnet.SiteID) *controller.RouteRecord {
	return &controller.RouteRecord{
		Chain: controller.ChainID(id), ChainLabel: label, IngressSite: in, EgressSite: eg,
		VNFs: []string{"fw", "nat"},
		Splits: []controller.SiteSplit{
			{Stage: 1, From: in, To: fwSite, Weight: 1},
			{Stage: 2, From: fwSite, To: natSite, Weight: 1},
			{Stage: 3, From: natSite, To: eg, Weight: 1},
		},
	}
}

func TestCheckRoute(t *testing.T) {
	capacity := vnfSites{"fw": {"A": 10}, "nat": {"B": 10}}
	if err := checkRoute(route("ok", 1, "A", "A", "B", "B"), capacity); err != nil {
		t.Fatalf("valid route: %v", err)
	}
	misplaced := route("misplaced", 1, "A", "B", "B", "B")
	if err := checkRoute(misplaced, capacity); err == nil {
		t.Error("a firewall placed where it has no capacity went unnoticed")
	}
	short := route("short", 1, "A", "A", "B", "B")
	short.Splits[1].Weight = 0.5
	if err := checkRoute(short, capacity); err == nil {
		t.Error("stage weights summing to 0.5 went unnoticed")
	}
}

func TestCheckCapacityCatchesOverCommittedSite(t *testing.T) {
	capacity := vnfSites{"fw": {"A": 10}, "nat": {"B": 10}}
	perUnit := map[string]float64{"fw": 1, "nat": 1}
	recs := []*controller.RouteRecord{route("c1", 1, "A", "A", "B", "B")}
	load := routeLoads(recs, 2, perUnit) // 2 in + 2 out at each VNF
	if got := load["fw"]["A"]; got != 4 {
		t.Fatalf("fw load at A = %v, want 4", got)
	}
	if err := checkCapacity(capacity, load, vnfSites{"fw": {"A": 6}, "nat": {"B": 6}}); err != nil {
		t.Fatalf("consistent accounting: %v", err)
	}
	if err := checkCapacity(capacity, load, vnfSites{"fw": {"A": 10}, "nat": {"B": 6}}); err == nil {
		t.Error("a controller that forgot a reservation went unnoticed")
	}
	over := append(recs, route("c2", 2, "A", "A", "B", "B"), route("c3", 3, "A", "A", "B", "B"))
	load = routeLoads(over, 2, perUnit)
	err := checkCapacity(capacity, load, vnfSites{"fw": {"A": -2}, "nat": {"B": -2}})
	if err == nil || !strings.Contains(err.Error(), "over-committed") {
		t.Errorf("three chains on a site with room for two: got %v, want over-committed", err)
	}
}

func TestCheckLabels(t *testing.T) {
	a, b := route("a", 5, "A", "A", "B", "B"), route("b", 5, "A", "A", "B", "B")
	if err := checkLabels([]*controller.RouteRecord{a, b}); err == nil {
		t.Error("two standing chains sharing a label went unnoticed")
	}
	b.ChainLabel = 6
	if err := checkLabels([]*controller.RouteRecord{a, b}); err != nil {
		t.Error(err)
	}
}

func TestLeftoverRuleForDeletedChain(t *testing.T) {
	st := labels.Stack{Chain: 9, Egress: 2}
	f := forwarder.New("A/fwd-edge", forwarder.ModeAffinity, 4)
	k := siteRole{"A", edgeRole}
	d := &deployment{fwds: map[siteRole]*forwarder.Forwarder{k: f}, order: []siteRole{k}}
	f.InstallRule(st, forwarder.RuleSpec{})
	if err := d.waitGone(st, 5*time.Millisecond); err == nil {
		t.Error("a rule left behind for a deleted chain went unnoticed")
	}
	f.RemoveRule(st)
	if err := d.waitGone(st, 5*time.Millisecond); err != nil {
		t.Errorf("after removal: %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	for _, c := range [][2]float64{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(c[0]-c[1]) > 1e-12 {
			t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
		}
	}
}

// TestChainWorkloadRunsClean runs a small chain workload end to end: it
// must finish with every check passing.
func TestChainWorkloadRunsClean(t *testing.T) {
	w := chainWorkload{flows: 16, window: 4, opsPerSecond: 400, warm: 64}
	res, err := runChain(w, config{workload: "test", seed: 3, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.lat) != 400 || res.ph.cpu() <= 0 {
		t.Errorf("measured %d latencies over %v CPU", len(res.lat), res.ph.cpu())
	}
}
