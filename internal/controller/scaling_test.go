package controller

import (
	"testing"
	"time"

	"switchboard/internal/edge"
	"switchboard/internal/labels"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
	"switchboard/internal/testutil"
	"switchboard/internal/vnf"
)

// TestScaleForwardersSpreadsNewFlows verifies elastic forwarder scaling
// (Section 5.1): after the Local Switchboard grows the VNF's forwarder
// set, upstream rules re-balance across all members, every member serves
// traffic, and flow affinity still holds because the members share one
// replicated flow table.
func TestScaleForwardersSpreadsNewFlows(t *testing.T) {
	tb := newTestbed(t, 2*time.Millisecond, "A", "B", "C")
	tb.registerSites(1000, "A", "B", "C")
	tb.addVNF("fw", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"B": 500})
	rec, err := tb.g.CreateChain(Spec{
		ID: "c1", IngressSite: "A", EgressSite: "C",
		VNFs: []string{"fw"}, ForwardRate: 10,
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

	// Scale the fw role at B to 3 forwarders.
	lsB := tb.locals["B"]
	if err := lsB.ScaleForwarders("fw", 3); err != nil {
		t.Fatalf("ScaleForwarders: %v", err)
	}
	members := lsB.roleForwarders("fw", false)
	if len(members) != 3 {
		t.Fatalf("members = %d, want 3", len(members))
	}

	// Wait for the ingress rule at A to include all 3 members.
	lsA := tb.locals["A"]
	fwdEdge, err := lsA.Forwarder("edge")
	if err != nil {
		t.Fatal(err)
	}
	st := labels.Stack{Chain: rec.ChainLabel, Egress: rec.EgressLabel}
	testutil.WaitUntil(t, 5*time.Second, "ingress rule grows to 3 next hops", func() bool {
		return fwdEdge.RuleNextHopCount(st) >= 3
	})

	// Push 60 fresh connections; they must spread across members.
	for i := 0; i < 60; i++ {
		p := &packet.Packet{Key: clientKey(uint16(52000 + i)), Payload: []byte("x")}
		if err := client.Send(ingress.Addr(), p, 41); err != nil {
			t.Fatal(err)
		}
		select {
		case <-server.Inbox():
		case <-time.After(5 * time.Second):
			tb.dumpDataPlane()
			t.Fatalf("connection %d never delivered", i)
		}
	}
	used := 0
	for _, rt := range members {
		if rt.f.Stats().Rx > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("only %d of 3 members carried traffic", used)
	}

	// Affinity across members: repeat packets of one flow always hit
	// the same VNF instance even if they land on different members (the
	// shared DHT flow table serves all of them). Exercise by sending
	// the same flow several times; every delivery must succeed and the
	// instance count must stay 1.
	for i := 0; i < 10; i++ {
		p := &packet.Packet{Key: clientKey(52000), Payload: []byte("again")}
		sendAndWait(t, client, ingress.Addr(), server, p)
	}
	total := 0
	for _, inst := range tb.g.vnf("fw").InstancesAt("B") {
		total += int(inst.Stats().Processed)
	}
	if total < 70 {
		t.Errorf("VNF processed %d packets, want ≥ 70 (conformity through scaled forwarders)", total)
	}
}
