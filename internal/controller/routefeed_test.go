package controller

// Tests of the route feed: the Global Switchboard publishes its whole
// route table, sorted by chain, on every change; each Local Switchboard
// diffs it against the last table it applied. Deletion is a chain's
// absence from the table, so a site that missed publications must still
// end with exactly the controller's chain set.

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"switchboard/internal/edge"
	"switchboard/internal/labels"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
	"switchboard/internal/testutil"
	"switchboard/internal/vnf"
)

// lsChains returns the chains a Local Switchboard holds state for.
func lsChains(ls *LocalSwitchboard) []ChainID {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ids := make([]ChainID, 0, len(ls.chains))
	for id := range ls.chains {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// gsChains returns the chains the Global Switchboard holds.
func gsChains(g *GlobalSwitchboard) []ChainID {
	g.mu.Lock()
	defer g.mu.Unlock()
	ids := make([]ChainID, 0, len(g.chains))
	for id := range g.chains {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// waitSameChains waits until every given Local Switchboard holds exactly
// the Global Switchboard's chains.
func waitSameChains(t *testing.T, g *GlobalSwitchboard, lss ...*LocalSwitchboard) {
	t.Helper()
	testutil.WaitUntil(t, 10*time.Second, "every LS holds the GS's chain set", func() bool {
		want := gsChains(g)
		for _, ls := range lss {
			if !slices.Equal(lsChains(ls), want) {
				return false
			}
		}
		return true
	})
}

func stackOf(rec *RouteRecord) labels.Stack {
	return labels.Stack{Chain: rec.ChainLabel, Egress: rec.EgressLabel}
}

// hasRule reports whether the role's first forwarder at the site holds a
// rule for the stack.
func hasRule(t *testing.T, ls *LocalSwitchboard, role string, st labels.Stack) bool {
	t.Helper()
	f, err := ls.Forwarder(role)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, ok := f.RuleInfo(st)
	return ok
}

// feedBed is a three-site bed with the controller at A and a firewall
// at B, tuned so anti-entropy resync runs every few milliseconds.
func feedBed(t *testing.T) *testbed {
	tb := newTestbed(t, time.Millisecond, "A", "B", "C")
	fastBus(tb.bus)
	tb.registerSites(1000, "A", "B", "C")
	tb.addVNF("fw", func() vnf.Function { return vnf.PassThrough{} }, 1.0, true,
		map[simnet.SiteID]float64{"B": 1000})
	return tb
}

func (tb *testbed) create(id ChainID, in, eg simnet.SiteID) *RouteRecord {
	tb.t.Helper()
	rec, err := tb.g.CreateChain(Spec{ID: id, IngressSite: in, EgressSite: eg, VNFs: []string{"fw"}, ForwardRate: 1})
	if err != nil {
		tb.t.Fatalf("CreateChain(%s): %v", id, err)
	}
	return rec
}

// TestMissedPublicationsConverge cuts site C off from the controller
// while chains are created and deleted, then heals the cut; it also
// starts a Local Switchboard at a new site D after the churn. Both must
// end with exactly the controller's chains: deletions included, though C
// never saw the publications that carried them and D saw only the
// latest table.
func TestMissedPublicationsConverge(t *testing.T) {
	tb := feedBed(t)
	gone := tb.create("c0", "A", "C")
	tb.create("c1", "A", "C")
	tb.create("c2", "C", "A")
	waitSameChains(t, tb.g, tb.locals["C"])

	tb.net.Partition("A", "C")
	for _, id := range []ChainID{"c0", "c2"} {
		if err := tb.g.DeleteChain(id); err != nil {
			t.Fatal(err)
		}
	}
	tb.create("c3", "A", "C")
	tb.create("c4", "A", "B")
	if lsc := lsChains(tb.locals["C"]); !slices.Contains(lsc, "c0") {
		t.Fatalf("C applied a table across the partition: %v", lsc)
	}
	tb.net.Heal("A", "C")
	waitSameChains(t, tb.g, tb.locals["A"], tb.locals["B"], tb.locals["C"])
	if got, want := gsChains(tb.g), []ChainID{"c1", "c3", "c4"}; !slices.Equal(got, want) {
		t.Fatalf("GS chains = %v, want %v", got, want)
	}
	testutil.WaitUntil(t, 5*time.Second, "deleted chain's rule removed at C", func() bool {
		return !hasRule(t, tb.locals["C"], edgeRole, stackOf(gone))
	})

	tb.net.SetPath("A", "D", simnet.PathProfile{Delay: time.Millisecond})
	if err := tb.bus.AddSite("D"); err != nil {
		t.Fatal(err)
	}
	late, err := NewLocalSwitchboard(tb.net, tb.bus, "D", "A")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(late.Close)
	waitSameChains(t, tb.g, late)
}

// TestRecreatedWhilePartitioned deletes a chain and creates it again
// under the same ID (on a new label stack) while site C, which holds the
// old chain's edge rule, is cut off. After the heal C holds the new
// chain's rule and not the old one.
func TestRecreatedWhilePartitioned(t *testing.T) {
	tb := feedBed(t)
	old := tb.create("c1", "A", "C")
	c := tb.locals["C"]
	testutil.WaitUntil(t, 5*time.Second, "old c1 rule at C", func() bool {
		return hasRule(t, c, edgeRole, stackOf(old))
	})

	tb.net.Partition("A", "C")
	if err := tb.g.DeleteChain("c1"); err != nil {
		t.Fatal(err)
	}
	// The filler takes c1's freed chain label (toward another egress), so
	// the new c1 gets a different label stack.
	tb.create("filler", "A", "B")
	cur := tb.create("c1", "A", "C")
	if stackOf(cur) == stackOf(old) {
		t.Fatalf("re-created c1 reused stack %v; the test needs a new one", stackOf(old))
	}
	tb.net.Heal("A", "C")

	waitSameChains(t, tb.g, c)
	testutil.WaitUntil(t, 5*time.Second, "new c1 rule at C, old one gone", func() bool {
		return hasRule(t, c, edgeRole, stackOf(cur)) && !hasRule(t, c, edgeRole, stackOf(old))
	})
	c.mu.Lock()
	applied := c.chains["c1"].rec
	c.mu.Unlock()
	if applied != cur {
		t.Fatalf("C holds c1 record %+v, want the re-created one %+v", applied, cur)
	}
}

// classifies reports whether an edge instance sends a new flow into the
// overlay on the chain label: the chain's classification rule is there.
func classifies(e *edge.Instance, chain uint32) bool {
	p := &packet.Packet{Key: packet.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}}
	_, ok := e.HandlePacket(p)
	return ok && p.Labels.Chain == chain
}

// lsRecord returns the record a Local Switchboard last applied for a
// chain, or nil.
func lsRecord(ls *LocalSwitchboard, id ChainID) *RouteRecord {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if cs, ok := ls.chains[id]; ok {
		return cs.rec
	}
	return nil
}

// TestUpdatesKeepEdgeClassification covers two updates of one chain
// computed from the same record, as a recompute racing an AddEdgeSite
// or an OptimizeAll computes them. The controller gives them strictly
// increasing versions in the order they reach the table, and a Local
// Switchboard applies a changed record of the same incarnation as an
// update even when its version is not higher: only a new incarnation
// removes the chain, and with it the ingress classification rules that
// ConfigureChainEdges alone installs.
func TestUpdatesKeepEdgeClassification(t *testing.T) {
	tb := feedBed(t)
	rec := tb.create("c1", "A", "C")
	ingress, _, err := tb.g.ConfigureChainEdges(rec, []edge.MatchRule{{}})
	if err != nil {
		t.Fatal(err)
	}
	tb.waitReady(rec, "A")
	if !classifies(ingress, rec.ChainLabel) {
		t.Fatal("ingress does not classify the chain after ConfigureChainEdges")
	}

	a, b := *rec, *rec
	for _, u := range []*RouteRecord{&a, &b} {
		tb.g.mu.Lock()
		tb.g.updateChainLocked("c1", tb.g.chains["c1"], u)
		tb.g.mu.Unlock()
		if err := tb.g.publishRoute(); err != nil {
			t.Fatal(err)
		}
	}
	if a.Version != rec.Version+1 || b.Version != rec.Version+2 {
		t.Fatalf("versions %d, %d after %d; want strictly increasing", a.Version, b.Version, rec.Version)
	}
	if a.Incarnation != rec.Incarnation || b.Incarnation != rec.Incarnation {
		t.Fatalf("incarnations %d, %d, want %d", a.Incarnation, b.Incarnation, rec.Incarnation)
	}
	ls := tb.locals["A"]
	testutil.WaitUntil(t, 5*time.Second, "A applies the second update", func() bool {
		return lsRecord(ls, "c1") == &b
	})
	if !classifies(ingress, rec.ChainLabel) {
		t.Fatal("an update removed the chain's ingress classification")
	}

	// A changed record with the same version, as two updates numbered
	// outside the lock would carry, is still an update.
	same := b
	tb.g.mu.Lock()
	table := slices.Clone(tb.g.table)
	tb.g.mu.Unlock()
	table[slices.Index(table, &b)] = &same
	applyOnLoop(ls, table)
	if lsRecord(ls, "c1") != &same || !classifies(ingress, rec.ChainLabel) {
		t.Fatal("a same-version update was applied as a re-creation")
	}

	// Another incarnation is a re-created chain: the old one goes.
	again := same
	again.Incarnation++
	table = slices.Clone(table)
	table[slices.Index(table, &same)] = &again
	applyOnLoop(ls, table)
	if classifies(ingress, rec.ChainLabel) {
		t.Fatal("a new incarnation did not remove the old chain")
	}
}

// applyOnLoop runs one table through a Local Switchboard's apply loop and
// waits for it.
func applyOnLoop(ls *LocalSwitchboard, table []*RouteRecord) {
	done := make(chan struct{})
	ls.enqueue(func() {
		ls.applyTable(table)
		close(done)
	})
	<-done
}

// edgeRecord is a chain entering at A and leaving at B through a
// firewall at B, so A's edge forwarder holds its rule.
func edgeRecord(id ChainID, chainLabel uint32, version int) *RouteRecord {
	return &RouteRecord{
		Chain: id, ChainLabel: chainLabel, EgressLabel: 1,
		IngressSite: "A", EgressSite: "B", VNFs: []string{"fw"},
		Splits: []SiteSplit{
			{Stage: 1, From: "A", To: "B", Weight: 1},
			{Stage: 2, From: "B", To: "B", Weight: 1},
		},
		Version: version,
	}
}

// TestStackHandedOverInOneTable applies a table in which chain X with
// stack L is gone and chain Y with the same stack L is new: the
// removal of X must not wipe Y's rule, whichever of the two sorts first.
func TestStackHandedOverInOneTable(t *testing.T) {
	for _, c := range []struct{ gone, added ChainID }{{"a-old", "b-new"}, {"b-old", "a-new"}} {
		t.Run(string(c.added), func(t *testing.T) {
			tb := newTestbed(t, time.Millisecond, "A", "B")
			ls := tb.locals["A"]
			x := edgeRecord(c.gone, 40, 0)
			applyOnLoop(ls, []*RouteRecord{x})
			if !hasRule(t, ls, edgeRole, stackOf(x)) {
				t.Fatal("X's rule not installed")
			}
			y := edgeRecord(c.added, 40, 0)
			applyOnLoop(ls, []*RouteRecord{y})
			if !hasRule(t, ls, edgeRole, stackOf(y)) {
				t.Fatal("Y's rule was wiped by X's removal")
			}
			if got := lsChains(ls); !slices.Equal(got, []ChainID{c.added}) {
				t.Fatalf("LS chains = %v, want [%s]", got, c.added)
			}
		})
	}
}

// TestConcurrentCreateDeleteConverge creates and deletes chains from
// several goroutines at once (run it with -race); every Local Switchboard
// must end with the controller's chain set.
func TestConcurrentCreateDeleteConverge(t *testing.T) {
	tb := feedBed(t)
	sites := []simnet.SiteID{"A", "B", "C"}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				id := ChainID(fmt.Sprintf("w%d-%d", w, i))
				spec := Spec{ID: id, IngressSite: sites[(w+i)%3], EgressSite: sites[(w+2*i+1)%3], VNFs: []string{"fw"}, ForwardRate: 1}
				if _, err := tb.g.CreateChain(spec); err != nil {
					errs <- err
					return
				}
				if i%2 == 0 {
					if err := tb.g.DeleteChain(id); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := len(gsChains(tb.g)); n != 16 {
		t.Fatalf("GS holds %d chains, want 16", n)
	}
	waitSameChains(t, tb.g, tb.locals["A"], tb.locals["B"], tb.locals["C"])
}

// BenchmarkRouteTableApply measures one Local Switchboard applying a
// 1,000-chain route table that differs from the last one applied in one
// record: changed (a newer version of one chain) or removed (one chain
// gone; the timer is stopped while it is put back). Each chain enters at
// the benchmarked site, so a changed record republishes the site's edge
// forwarder and reinstalls its rule.
func BenchmarkRouteTableApply(b *testing.B) {
	const chains = 1000
	setup := func(b *testing.B) (*LocalSwitchboard, []*RouteRecord) {
		tb := newTestbed(b, time.Millisecond, "A", "B")
		ls := tb.locals["A"]
		table := make([]*RouteRecord, chains)
		for i := range table {
			table[i] = edgeRecord(ChainID(fmt.Sprintf("c%04d", i)), uint32(16+i), 0)
		}
		applyOnLoop(ls, table)
		b.ReportAllocs()
		b.ResetTimer()
		return ls, table
	}
	b.Run("changed", func(b *testing.B) {
		ls, table := setup(b)
		for i := 0; i < b.N; i++ {
			k := i % chains
			rec := *table[k]
			rec.Version++
			next := slices.Clone(table)
			next[k] = &rec
			applyOnLoop(ls, next)
			table = next
		}
	})
	b.Run("removed", func(b *testing.B) {
		ls, table := setup(b)
		for i := 0; i < b.N; i++ {
			k := i % chains
			applyOnLoop(ls, slices.Delete(slices.Clone(table), k, k+1))
			b.StopTimer()
			applyOnLoop(ls, table)
			b.StartTimer()
		}
	})
}
