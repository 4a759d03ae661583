package controller_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/experiments"
	"switchboard/internal/simnet"
	"switchboard/internal/testutil"
	"switchboard/internal/vnf"
)

// lsGoroutines counts live goroutines that Local Switchboard code
// started (by the "created by" line of each stack, which holds whether
// or not the goroutine has begun running).
func lsGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, block := range strings.Split(string(buf), "\n\n") {
		_, creator, _ := strings.Cut(block, "\ncreated by ")
		if strings.HasPrefix(creator, "switchboard/internal/controller.") && strings.Contains(strings.SplitN(creator, "\n", 2)[0], "LocalSwitchboard") {
			count++
		}
	}
	return count
}

// TestLocalSwitchboardGoroutinesIndependentOfChainCount stands up 50 and
// then 200 chains on one deployment: a Local Switchboard's goroutines
// must not grow with the chains that cross its site, and deleting every
// chain must leave nothing behind.
func TestLocalSwitchboardGoroutinesIndependentOfChainCount(t *testing.T) {
	testutil.NoLeaks(t)
	sites := []simnet.SiteID{"A", "B", "C"}
	bed, err := experiments.NewBed(1, time.Millisecond, sites...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bed.Close)
	for _, s := range sites {
		if _, err := bed.G.RegisterSite(s, 1000); err != nil {
			t.Fatal(err)
		}
	}
	bed.AddVNF(controller.VNFConfig{
		Name: "fw", Factory: func() vnf.Function { return vnf.PassThrough{} }, LoadPerUnit: 1,
		LabelAware: true, SharedInstances: true, Capacity: map[simnet.SiteID]float64{"B": 1000},
	})
	idle := lsGoroutines()

	var ids []controller.ChainID
	grow := func(n int) int {
		for len(ids) < n {
			i := len(ids)
			spec := controller.Spec{
				ID: controller.ChainID(fmt.Sprintf("c%d", i)), IngressSite: sites[2*(i%2)], EgressSite: sites[2-2*(i%2)],
				VNFs: []string{"fw"}, ForwardRate: 1,
			}
			rec, err := bed.G.CreateChain(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range sites {
				if err := bed.G.WaitForDataPath(rec, s, 5*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			ids = append(ids, rec.Chain)
		}
		return lsGoroutines()
	}
	at50 := grow(50)
	at200 := grow(200)
	t.Logf("Local Switchboard goroutines: %d idle, %d at 50 chains, %d at 200 chains", idle, at50, at200)
	if at200 > at50 {
		t.Fatalf("Local Switchboard goroutines grew with the chain count: %d at 50 chains, %d at 200", at50, at200)
	}

	for _, id := range ids {
		if err := bed.G.DeleteChain(id); err != nil {
			t.Fatal(err)
		}
	}
	if !testutil.Poll(5*time.Second, func() bool { return lsGoroutines() <= idle }) {
		t.Fatalf("Local Switchboard goroutines after deleting every chain: %d, want %d as before any chain", lsGoroutines(), idle)
	}
}
