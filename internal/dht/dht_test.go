package dht

import (
	"slices"
	"testing"

	"switchboard/internal/flowtable"
	"switchboard/internal/labels"
	"switchboard/internal/packet"
)

var st = labels.Stack{Chain: 5, Egress: 2}

func flowN(i int) packet.FlowKey {
	return packet.FlowKey{
		SrcIP: 0x0A000000 | uint32(i), DstIP: 0xC0A80001,
		SrcPort: uint16(1024 + i%60000), DstPort: 80, Proto: 6,
	}
}

// testRing builds a ring snapshot over fresh, empty stores.
func testRing(replicas int, names ...string) *ring {
	stores := make([]*store, len(names))
	for i, n := range names {
		stores[i] = &store{name: n, m: make(map[flowtable.Key]entry)}
	}
	return newRing(stores, nil, replicas)
}

// ownerNames returns the names of the key's owners, in ring order.
func ownerNames(r *ring, key uint64) []string {
	var out []string
	for _, st := range r.ownersOf(key) {
		out = append(out, st.name)
	}
	return out
}

func TestRingOwnersDistinctAndStable(t *testing.T) {
	r := testRing(3, "f1", "f2", "f3", "f4")
	owners := ownerNames(r, 12345)
	if len(owners) != 3 {
		t.Fatalf("owners = %v, want 3", owners)
	}
	seen := map[string]bool{}
	for _, o := range owners {
		if seen[o] {
			t.Fatalf("duplicate owner %s", o)
		}
		seen[o] = true
	}
	// Stability: same key, same owners — also from a snapshot rebuilt
	// over the same membership.
	for _, again := range [][]string{ownerNames(r, 12345), ownerNames(testRing(3, "f4", "f3", "f2", "f1"), 12345)} {
		for i := range owners {
			if owners[i] != again[i] {
				t.Fatal("owners not deterministic")
			}
		}
	}
}

func TestRingOwnersFewerThanReplicas(t *testing.T) {
	if got := ownerNames(testRing(3, "only"), 1); len(got) != 1 || got[0] != "only" {
		t.Errorf("owners = %v", got)
	}
	if got := testRing(2).ownersOf(1); got != nil {
		t.Errorf("empty ring owners = %v", got)
	}
}

// TestRingRemoveRedistributes removes a member through the cluster and
// compares the snapshots before and after: the removed member owns no
// key, and a key it did not own keeps exactly its owners.
func TestRingRemoveRedistributes(t *testing.T) {
	c := NewCluster(2)
	for _, n := range []string{"f1", "f2", "f3"} {
		if _, err := c.Join(n); err != nil {
			t.Fatal(err)
		}
	}
	before := c.ring.Load()
	c.Fail("f2")
	after := c.ring.Load()
	if got := c.Members(); len(got) != 2 {
		t.Fatalf("members = %v", got)
	}
	for key := uint64(0); key < 1000; key += 37 {
		was, is := ownerNames(before, key), ownerNames(after, key)
		for _, o := range is {
			if o == "f2" {
				t.Fatal("removed node still owns keys")
			}
		}
		if !slices.Contains(was, "f2") && !slices.Equal(was, is) {
			t.Fatalf("key %d not owned by f2 moved: %v -> %v", key, was, is)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := testRing(1, "f0", "f1", "f2", "f3")
	counts := map[string]int{}
	for i := 0; i < 40000; i++ {
		counts[ownerNames(r, flowN(i).Hash())[0]]++
	}
	for n, c := range counts {
		share := float64(c) / 40000
		if share < 0.10 || share > 0.45 {
			t.Errorf("node %s owns %.0f%% of keys; want roughly balanced", n, share*100)
		}
	}
}

func TestClusterReplicationSurvivesFailure(t *testing.T) {
	c := NewCluster(2)
	n1, err := c.Join("f1")
	if err != nil {
		t.Fatal(err)
	}
	n2, err := c.Join("f2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join("f3"); err != nil {
		t.Fatal(err)
	}
	const flows = 500
	for i := 0; i < flows; i++ {
		n1.Insert(st, flowN(i), flowtable.Record{VNF: flowtable.Hop(i + 1), Next: 7, Prev: 9})
	}
	if got := c.Len(); got != flows {
		t.Fatalf("Len = %d, want %d", got, flows)
	}
	// Any member sees every record.
	for i := 0; i < flows; i++ {
		rec, fwd, ok := n2.Lookup(st, flowN(i))
		if !ok || !fwd || rec.VNF != flowtable.Hop(i+1) {
			t.Fatalf("flow %d not visible from f2: %+v %v %v", i, rec, fwd, ok)
		}
	}
	// f1 crashes: with replication factor 2, no record is lost.
	c.Fail("f1")
	for i := 0; i < flows; i++ {
		if _, _, ok := n2.Lookup(st, flowN(i)); !ok {
			t.Fatalf("flow %d lost after single failure with R=2", i)
		}
	}
	// Repair restored R=2 on the survivors: a second failure of either
	// remaining node still loses nothing.
	c.Fail("f3")
	lost := 0
	for i := 0; i < flows; i++ {
		if _, _, ok := n2.Lookup(st, flowN(i)); !ok {
			lost++
		}
	}
	if lost != 0 {
		t.Errorf("%d flows lost after sequential failures with repair", lost)
	}
}

func TestClusterNoReplicationLosesOnFailure(t *testing.T) {
	c := NewCluster(1) // no redundancy
	n1, _ := c.Join("f1")
	n2, _ := c.Join("f2")
	_ = n2
	const flows = 400
	for i := 0; i < flows; i++ {
		n1.Insert(st, flowN(i), flowtable.Record{VNF: 1})
	}
	c.Fail("f1")
	survivors := 0
	for i := 0; i < flows; i++ {
		if _, _, ok := n2.Lookup(st, flowN(i)); ok {
			survivors++
		}
	}
	if survivors == 0 || survivors == flows {
		t.Errorf("survivors = %d of %d with R=1; want partial loss (f2's share only)", survivors, flows)
	}
}

func TestClusterLeaveKeepsEverything(t *testing.T) {
	c := NewCluster(2)
	n1, _ := c.Join("f1")
	n2, _ := c.Join("f2")
	const flows = 300
	for i := 0; i < flows; i++ {
		n1.Insert(st, flowN(i), flowtable.Record{Next: 3})
	}
	c.Leave("f1") // graceful: hands records off first
	for i := 0; i < flows; i++ {
		if _, _, ok := n2.Lookup(st, flowN(i)); !ok {
			t.Fatalf("flow %d lost on graceful leave", i)
		}
	}
}

func TestClusterJoinRebalances(t *testing.T) {
	c := NewCluster(2)
	n1, _ := c.Join("f1")
	const flows = 300
	for i := 0; i < flows; i++ {
		n1.Insert(st, flowN(i), flowtable.Record{Next: 3})
	}
	// New member joins; repair copies its share over, so f1 can fail.
	n2, err := c.Join("f2")
	if err != nil {
		t.Fatal(err)
	}
	c.Fail("f1")
	for i := 0; i < flows; i++ {
		if _, _, ok := n2.Lookup(st, flowN(i)); !ok {
			t.Fatalf("flow %d lost after join+fail", i)
		}
	}
}

func TestClusterRemoveAndAdvance(t *testing.T) {
	c := NewCluster(2)
	n1, _ := c.Join("f1")
	n1.Insert(st, flowN(1), flowtable.Record{Next: 3})
	n1.Remove(st, flowN(1).Reverse())
	if _, _, ok := n1.Lookup(st, flowN(1)); ok {
		t.Error("record survived Remove")
	}
	n1.Insert(st, flowN(2), flowtable.Record{Next: 3})
	for e := 0; e < 3; e++ {
		n1.Advance(1)
	}
	if _, _, ok := n1.Lookup(st, flowN(2)); ok {
		t.Error("idle record survived Advance eviction")
	}
}

func TestClusterDuplicateJoin(t *testing.T) {
	c := NewCluster(1)
	if _, err := c.Join("f1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join("f1"); err == nil {
		t.Error("duplicate join succeeded")
	}
}
