package controller

import (
	"fmt"
	"testing"
	"time"

	"switchboard/internal/edge"
	"switchboard/internal/labels"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
	"switchboard/internal/testutil"
	"switchboard/internal/vnf"
)

func TestDeleteChainRemovesRulesAndReleasesResources(t *testing.T) {
	tb := newTestbed(t, 2*time.Millisecond, "A", "B", "C")
	tb.registerSites(1000, "A", "B", "C")
	v := tb.addVNF("fw", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"B": 100})

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

	// Traffic works pre-delete.
	client := tb.host("A", "client")
	server := tb.host("C", "server")
	egress.RegisterHost(serverIP, server.Addr())
	sendAndWait(t, client, ingress.Addr(), server,
		&packet.Packet{Key: clientKey(60000), Payload: []byte("pre")})

	remainBefore := v.Sites()["B"]
	if remainBefore > 99 {
		t.Fatalf("no load committed before delete: remaining %v", remainBefore)
	}
	if err := tb.g.DeleteChain("c1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.g.Record("c1"); ok {
		t.Error("record still present after delete")
	}
	if got := v.Sites()["B"]; got != 100 {
		t.Errorf("capacity after delete = %v, want 100 (released)", got)
	}

	// Rules disappear at every site.
	st := labels.Stack{Chain: rec.ChainLabel, Egress: rec.EgressLabel}
	testutil.WaitUntil(t, 3*time.Second, "rules removed after delete", func() bool {
		for site, role := range map[simnet.SiteID]string{"A": "edge", "B": "fw", "C": "edge"} {
			f, err := tb.locals[site].Forwarder(role)
			if err != nil {
				continue
			}
			if _, _, _, ok := f.RuleInfo(st); ok {
				return false
			}
		}
		return true
	})

	// New traffic for the chain is dropped at the ingress edge (its
	// classification rules are gone).
	p := &packet.Packet{Key: clientKey(60001), Payload: []byte("post")}
	if err := client.Send(ingress.Addr(), p, 8); err != nil {
		t.Fatal(err)
	}
	select {
	case <-server.Inbox():
		t.Error("packet delivered through a deleted chain")
	case <-time.After(200 * time.Millisecond):
	}

	if err := tb.g.DeleteChain("c1"); err == nil {
		t.Error("double delete succeeded")
	}
}

func TestDeleteChainFreesLabelForReuse(t *testing.T) {
	tb := newTestbed(t, time.Millisecond, "A", "B")
	tb.registerSites(1000, "A", "B")
	tb.addVNF("fw", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"B": 100})
	rec1, err := tb.g.CreateChain(Spec{
		ID: "c1", IngressSite: "A", EgressSite: "B", VNFs: []string{"fw"}, ForwardRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.g.DeleteChain("c1"); err != nil {
		t.Fatal(err)
	}
	rec2, err := tb.g.CreateChain(Spec{
		ID: "c2", IngressSite: "A", EgressSite: "B", VNFs: []string{"fw"}, ForwardRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ChainLabel != rec1.ChainLabel {
		t.Logf("label %d not reused (got %d) — allocator may hand out fresh ones first", rec1.ChainLabel, rec2.ChainLabel)
	}
	if rec2.ChainLabel == 0 {
		t.Error("no label allocated")
	}
}

// TestDeleteChainStopsDedicatedInstances runs create/delete cycles of a
// chain whose VNF gives every chain its own instances: each delete must
// stop and detach them, so instances, attached endpoints and goroutines
// all return to where they were after the first cycle.
func TestDeleteChainStopsDedicatedInstances(t *testing.T) {
	tb := newTestbed(t, time.Millisecond, "A", "B")
	tb.registerSites(1000, "A", "B")
	v := tb.addVNF("fw", func() vnf.Function { return vnf.PassThrough{} }, 1.0, false,
		map[simnet.SiteID]float64{"B": 100})
	cycle := func(i int) {
		id := ChainID(fmt.Sprintf("c%d", i))
		if _, err := tb.g.CreateChain(Spec{ID: id, IngressSite: "A", EgressSite: "B", VNFs: []string{"fw"}, ForwardRate: 1}); err != nil {
			t.Fatal(err)
		}
		if got := len(v.InstancesAt("B")); got != 1 {
			t.Fatalf("cycle %d: %d instances while the chain stands, want 1", i, got)
		}
		if err := tb.g.DeleteChain(id); err != nil {
			t.Fatal(err)
		}
	}
	cycle(0)
	// A site pair's WAN pipe starts on its first message; there is one
	// per pair, however many chains there are.
	endpoints, leaks := len(tb.net.Endpoints()), testutil.StartLeakCheck("simnet.(*Network).pipeFor")
	for i := 1; i <= 200; i++ {
		cycle(i)
	}
	if got := len(v.InstancesAt("B")); got != 0 {
		t.Errorf("%d instances left after 200 cycles, want 0", got)
	}
	if got := len(tb.net.Endpoints()); got != endpoints {
		t.Errorf("%d endpoints attached after 200 cycles, want %d as after the first", got, endpoints)
	}
	if err := leaks.Wait(0); err != nil {
		t.Errorf("goroutines left by 200 cycles: %v", err)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for site, stacks := range v.served {
		if len(stacks) > 0 {
			t.Errorf("%d deleted chains still recorded as served at %s", len(stacks), site)
		}
	}
}
