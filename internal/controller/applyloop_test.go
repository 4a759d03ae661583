package controller

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"switchboard/internal/bus"
	"switchboard/internal/labels"
	"switchboard/internal/simnet"
	"switchboard/internal/testutil"
	"switchboard/internal/vnf"
)

// addrList publishes n instance or forwarder entries named prefix-0..n-1.
func addrList(site simnet.SiteID, prefix string, n int) []InstanceInfo {
	out := make([]InstanceInfo, n)
	for i := range out {
		out[i] = InstanceInfo{Addr: simnet.Addr{Site: site, Host: fmt.Sprintf("%s-%d", prefix, i)}, Weight: 1, LabelAware: true}
	}
	return out
}

func addrsOf(infos []InstanceInfo) []simnet.Addr {
	out := make([]simnet.Addr, len(infos))
	for i, info := range infos {
		out[i] = info.Addr
	}
	return out
}

func sameAddrs(got, want []simnet.Addr) bool {
	return len(got) == len(want) && !slices.ContainsFunc(want, func(a simnet.Addr) bool { return !slices.Contains(got, a) })
}

// TestInterleavedDependencyUpdatesConverge publishes interleaved updates
// on two dependency topics of one chain from two goroutines, then one
// final list on each. However the installs interleave, the stage
// forwarder's rule must end up built from the two final lists: an update
// that lands while an install is under way must never be lost.
func TestInterleavedDependencyUpdatesConverge(t *testing.T) {
	tb := newTestbed(t, time.Millisecond, "A", "B", "C")
	tb.registerSites(1000, "A", "B", "C")
	tb.addVNF("fw", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"B": 100})
	rec, err := tb.g.CreateChain(Spec{ID: "c1", IngressSite: "A", EgressSite: "C", VNFs: []string{"fw"}, ForwardRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.g.ConfigureChainEdges(rec, nil); err != nil {
		t.Fatal(err)
	}
	tb.waitReady(rec, "A", "B", "C")
	st := labels.Stack{Chain: rec.ChainLabel, Egress: rec.EgressLabel}
	f, err := tb.locals["B"].Forwarder("fw")
	if err != nil {
		t.Fatal(err)
	}
	// The previous hop is A's edge forwarder, which nobody republishes.
	wantPrev := []simnet.Addr{{Site: "A", Host: "fwd-" + edgeRole}}

	const rounds = 300
	finalInst := addrList("B", "final-inst", 4)
	finalNext := addrList("C", "final-fwd", 2)
	var wg sync.WaitGroup
	feed := func(site simnet.SiteID, topic bus.Topic, lists func(i int) []InstanceInfo, final []InstanceInfo) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := tb.bus.Publish(site, topic, lists(i), 64); err != nil {
				t.Error(err)
				return
			}
		}
		if err := tb.bus.Publish(site, topic, final, 64); err != nil {
			t.Error(err)
		}
	}
	wg.Add(2)
	go feed("B", instancesTopic(st, "fw", "B"), func(i int) []InstanceInfo {
		return addrList("B", fmt.Sprintf("inst%d", i), 1+i%3)
	}, finalInst)
	go feed("C", forwardersTopic(st, edgeRole, "C"), func(i int) []InstanceInfo {
		return addrList("C", fmt.Sprintf("fwd%d", i), 1+i%4)
	}, finalNext)
	wg.Wait()

	converged := func() bool {
		local, next, prev, ok := f.RuleAddrs(st)
		if !ok || !sameAddrs(local, addrsOf(finalInst)) || !sameAddrs(next, addrsOf(finalNext)) || !sameAddrs(prev, wantPrev) {
			return false
		}
		// Four and two equally weighted hops fill all 64 picker slots.
		l, n, _, _ := f.RuleInfo(st)
		return l == 64 && n == 64
	}
	if !testutil.Poll(5*time.Second, converged) {
		local, next, prev, ok := f.RuleAddrs(st)
		l, n, p, _ := f.RuleInfo(st)
		t.Fatalf("rule never matched the final lists: ok=%v local=%v next=%v prev=%v (slots %d/%d/%d)", ok, local, next, prev, l, n, p)
	}
	// The rule stays at the final lists once the updates stop.
	time.Sleep(50 * time.Millisecond)
	if !converged() {
		t.Fatal("rule moved away from the final lists after quiescence")
	}
}
