package dht

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"switchboard/internal/flowtable"
)

// pinnedCluster returns a two-replica cluster of the given members with
// flows records already inserted, and the first member's handle.
func pinnedCluster(tb testing.TB, members, flows int) *Node {
	c := NewCluster(2)
	var first *Node
	for i := 0; i < members; i++ {
		n, err := c.Join(fmt.Sprintf("f%d", i))
		if err != nil {
			tb.Fatal(err)
		}
		if first == nil {
			first = n
		}
	}
	for i := 0; i < flows; i++ {
		first.Insert(st, flowN(i), flowtable.Record{VNF: flowtable.Hop(i%7 + 1), Next: 2})
	}
	return first
}

// TestNodeLookupZeroAlloc pins the deployed store's read path at zero
// allocations: a lookup reads the current ring snapshot and probes the
// owners' partitions, building nothing.
func TestNodeLookupZeroAlloc(t *testing.T) {
	const flows = 256
	n := pinnedCluster(t, 3, flows)
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < flows; i++ {
			if _, _, ok := n.Lookup(st, flowN(i)); !ok {
				panic("pinned flow not found")
			}
		}
	}); avg != 0 {
		t.Fatalf("Node.Lookup allocates %.1f allocs per %d lookups, want 0", avg, flows)
	}
}

// BenchmarkNodeLookup times one lookup of a pinned flow through a member
// of a two-replica, two-member cluster, as a Local Switchboard deploys it.
func BenchmarkNodeLookup(b *testing.B) {
	const flows = 4096
	n := pinnedCluster(b, 2, flows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := n.Lookup(st, flowN(i%flows)); !ok {
			b.Fatal("pinned flow not found")
		}
	}
}

// TestClusterMembershipChurn runs lookups and inserts from several
// goroutines while members join, leave, crash and repair. With two
// replicas and a single crash, every record inserted before the churn
// must afterwards be found by every surviving member, and held by each
// of its current owners.
func TestClusterMembershipChurn(t *testing.T) {
	const flows = 2000
	c := NewCluster(2)
	nodes := map[string]*Node{}
	join := func(name string) {
		n, err := c.Join(name)
		if err != nil {
			t.Error(err)
			return
		}
		nodes[name] = n
	}
	for _, name := range []string{"f1", "f2", "f3", "f4"} {
		join(name)
	}
	want := func(i int) flowtable.Record {
		return flowtable.Record{VNF: flowtable.Hop(i%5 + 1), Next: flowtable.Hop(i%3 + 1), Prev: 9}
	}
	for i := 0; i < flows; i++ {
		nodes["f1"].Insert(st, flowN(i), want(i))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w, name := range []string{"f1", "f4"} {
		n := nodes[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				n.Lookup(st, flowN(i%flows))
				n.Insert(st, flowN(flows*(w+2)+i%flows), flowtable.Record{Next: 1})
			}
		}()
	}
	join("f5")
	c.Leave("f2") // hands its records off, or the crash below loses some
	c.Fail("f3")  // the one crash
	c.Repair()
	join("f6")
	c.Leave("f5")
	join("f7")
	stop.Store(true)
	wg.Wait()

	surviving := c.Members()
	if len(surviving) != 4 {
		t.Fatalf("members after churn = %v, want f1 f4 f6 f7", surviving)
	}
	r := c.ring.Load()
	for i := 0; i < flows; i++ {
		for _, name := range surviving {
			rec, fwd, ok := nodes[name].Lookup(st, flowN(i))
			if !ok || !fwd || rec != want(i) {
				t.Fatalf("flow %d seen by %s as %+v fwd=%v ok=%v, want %+v", i, name, rec, fwd, ok, want(i))
			}
		}
		k, _ := canonicalKey(st, flowN(i))
		for _, o := range r.ownersOf(k.Flow.Hash()) {
			o.mu.Lock()
			_, held := o.m[k]
			o.mu.Unlock()
			if !held {
				t.Fatalf("flow %d missing from its owner %s after churn", i, o.name)
			}
		}
	}
}
