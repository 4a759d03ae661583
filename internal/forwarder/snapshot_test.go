package forwarder

// Tests pinning the RCU rule-snapshot semantics: the hot path reads one
// atomically-published snapshot per burst, so control-plane writes
// racing ProcessBatch must never produce a burst that observes two rule
// versions, and rule churn plus live migration must be race-free
// against any number of runner cores (run with -race).

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"switchboard/internal/flowtable"
	"switchboard/internal/labels"
	"switchboard/internal/packet"
)

// TestBatchObservesOneSnapshot flips the rule for one stack between two
// single-hop next sets as fast as possible while a reader processes
// bursts. Because each rule version emits exactly one hop, a burst that
// mixed hops would prove it straddled a snapshot swap.
func TestBatchObservesOneSnapshot(t *testing.T) {
	f := New("f", ModeLabels, 4)
	st := labels.Stack{Chain: 5, Egress: 1}
	nextA := f.AddHop(NextHop{Kind: KindForwarder, Addr: addr("B", "a")})
	nextB := f.AddHop(NextHop{Kind: KindForwarder, Addr: addr("B", "b")})
	prev := f.AddHop(NextHop{Kind: KindEdge, Addr: addr("A", "edge")})
	specA := RuleSpec{Next: []WeightedHop{{nextA, 1}}, Prev: []WeightedHop{{prev, 1}}}
	specB := RuleSpec{Next: []WeightedHop{{nextB, 1}}, Prev: []WeightedHop{{prev, 1}}}
	f.InstallRule(st, specA)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				f.InstallRule(st, specB)
			} else {
				f.InstallRule(st, specA)
			}
		}
	}()

	const batch = 64
	pkts := make([]*packet.Packet, batch)
	froms := make([]flowtable.Hop, batch)
	for i := range pkts {
		pkts[i] = &packet.Packet{Labels: st, Labeled: true, Key: flow(i)}
		froms[i] = prev
	}
	var res BatchResult
	for iter := 0; iter < 2000; iter++ {
		f.ProcessBatch(pkts, froms, &res)
		first := res.Hops[0].ID
		for i := 0; i < batch; i++ {
			if res.Errs[i] != nil {
				t.Fatalf("iter %d entry %d: %v", iter, i, res.Errs[i])
			}
			if res.Hops[i].ID != first {
				t.Fatalf("iter %d: burst mixed hops %d and %d — batch straddled a snapshot swap",
					iter, first, res.Hops[i].ID)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestRemoveAbsentRuleCopiesNothing pins the no-op write path: removing
// a stack the forwarder holds no rule for publishes no new snapshot and
// allocates nothing, however many rules the forwarder holds.
func TestRemoveAbsentRuleCopiesNothing(t *testing.T) {
	f := New("f", ModeLabels, 4)
	next := f.AddHop(NextHop{Kind: KindForwarder, Addr: addr("B", "a")})
	for c := uint32(1); c <= 100; c++ {
		f.InstallRule(labels.Stack{Chain: c, Egress: 1}, RuleSpec{Next: []WeightedHop{{next, 1}}})
	}
	absent := labels.Stack{Chain: 999, Egress: 1}
	before := f.snap.Load()
	f.RemoveRule(absent)
	if f.snap.Load() != before {
		t.Fatal("RemoveRule of an absent stack published a new snapshot")
	}
	if n := testing.AllocsPerRun(100, func() { f.RemoveRule(absent) }); n != 0 {
		t.Fatalf("RemoveRule of an absent stack: %v allocs, want 0", n)
	}
	f.RemoveRule(labels.Stack{Chain: 1, Egress: 1})
	if f.snap.Load() == before || f.rulesLen() != 99 {
		t.Fatalf("RemoveRule of a present stack: snapshot replaced %v, %d rules, want 99",
			f.snap.Load() != before, f.rulesLen())
	}
}

// TestReinstallKeepsChainDropMap pins that a rule install for a chain
// label the forwarder already counts republishes the rule table but not
// the chain-drop map, and that a new label still reaches the map.
func TestReinstallKeepsChainDropMap(t *testing.T) {
	f := New("f", ModeLabels, 4)
	next := f.AddHop(NextHop{Kind: KindForwarder, Addr: addr("B", "a")})
	spec := RuleSpec{Chain: "c5", Next: []WeightedHop{{next, 1}}}
	st := labels.Stack{Chain: 5, Egress: 1}
	f.InstallRule(st, spec)
	drops := f.snap.Load().chainDropOf
	if drops[5] == nil {
		t.Fatal("first install did not publish the chain's drop counter")
	}
	f.InstallRule(st, spec)
	f.InstallRule(labels.Stack{Chain: 5, Egress: 2}, spec)
	if got := f.snap.Load().chainDropOf; reflect.ValueOf(got).UnsafePointer() != reflect.ValueOf(drops).UnsafePointer() {
		t.Fatal("install for an already counted chain label replaced chainDropOf")
	}
	f.InstallRule(labels.Stack{Chain: 6, Egress: 1}, RuleSpec{Chain: "c6", Next: []WeightedHop{{next, 1}}})
	if f.snap.Load().chainDropOf[6] == nil {
		t.Fatal("install for a new chain label did not publish its drop counter")
	}
}

// TestConcurrentRuleChurnRacingProcessBatch hammers the affinity batch
// path from multiple cores while other goroutines install and remove
// rules, register hops, and resolve chain counters. The stable stack's
// packets must always forward; the churned stacks merely must not race
// (the -race run is the real assertion).
func TestConcurrentRuleChurnRacingProcessBatch(t *testing.T) {
	f := NewWithStore("f", ModeAffinity, flowtable.NewPartitioned(2, 4))
	st := labels.Stack{Chain: 5, Egress: 1}
	next := f.AddHop(NextHop{Kind: KindForwarder, Addr: addr("B", "peer")})
	prev := f.AddHop(NextHop{Kind: KindEdge, Addr: addr("A", "edge")})
	f.InstallRule(st, RuleSpec{Next: []WeightedHop{{next, 1}}, Prev: []WeightedHop{{prev, 1}}})

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: churn rules for other stacks, add hops, resolve counters.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				churn := labels.Stack{Chain: uint32(100 + w), Egress: uint32(i % 8)}
				f.InstallRule(churn, RuleSpec{Next: []WeightedHop{{next, 1}}})
				if i%3 == 0 {
					f.RemoveRule(churn)
				}
				if i%17 == 0 {
					f.AddHop(NextHop{Kind: KindForwarder, Addr: addr("C", fmt.Sprintf("h%d-%d", w, i))})
				}
				if i%5 == 0 {
					f.ChainCounters(uint32(100+w), "")
					f.ForgetChain(uint32(100+w), "")
				}
			}
		}(w)
	}

	// Readers: two cores processing disjoint steered flow sets.
	var processed atomic.Uint64
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			const batch = 32
			pkts := make([]*packet.Packet, batch)
			froms := make([]flowtable.Hop, batch)
			for i := range pkts {
				pkts[i] = &packet.Packet{Labels: st, Labeled: true, Key: flow(c*1000 + i)}
				froms[i] = prev
			}
			var res BatchResult
			for iter := 0; iter < 3000; iter++ {
				f.ProcessBatch(pkts, froms, &res)
				for i := range res.Errs {
					if res.Errs[i] != nil {
						t.Errorf("core %d iter %d: stable rule failed: %v", c, iter, res.Errs[i])
						return
					}
					pkts[i].Labeled = true
				}
				processed.Add(batch)
			}
		}(c)
	}
	// Stop writers once both readers are done (readers bound the test).
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	defer wg.Wait()
	defer close(stop)
	for {
		select {
		case <-done:
			if processed.Load() == 0 {
				t.Fatal("no batches processed")
			}
			return
		default:
			if processed.Load() >= 2*3000*32 {
				return
			}
		}
	}
}

// TestMigrationRacingRuleChurn opens and closes migration gates while
// rule installs churn the snapshot and a reader drives the affinity
// path — the exact window where a stale-snapshot bug would hide.
func TestMigrationRacingRuleChurn(t *testing.T) {
	f := New("f", ModeAffinity, 4)
	st := labels.Stack{Chain: 5, Egress: 1}
	vnf := f.AddHop(NextHop{Kind: KindVNF, Addr: addr("A", "vnf"), LabelAware: true})
	next := f.AddHop(NextHop{Kind: KindForwarder, Addr: addr("B", "peer")})
	prev := f.AddHop(NextHop{Kind: KindEdge, Addr: addr("A", "edge")})
	spec := RuleSpec{
		LocalVNF: []WeightedHop{{vnf, 1}},
		Next:     []WeightedHop{{next, 1}},
		Prev:     []WeightedHop{{prev, 1}},
	}
	f.InstallRule(st, spec)

	// Pin one flow so the migration gate has a target.
	mig := &packet.Packet{Labels: st, Labeled: true, Key: flow(1)}
	if _, err := f.Process(mig, prev); err != nil {
		t.Fatal(err)
	}
	canon, _ := flow(1).Canonical()
	migKey := flowtable.Key{Chain: st.Chain, Egress: st.Egress, Flow: canon}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // rule churn
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f.InstallRule(st, spec)
		}
	}()

	const batch = 16
	pkts := make([]*packet.Packet, batch)
	froms := make([]flowtable.Hop, batch)
	var res BatchResult
	for iter := 0; iter < 400; iter++ {
		m, err := f.BeginMigration(st, vnf, []flowtable.Key{migKey}, 64)
		if err != nil {
			t.Fatalf("iter %d: BeginMigration: %v", iter, err)
		}
		for i := range pkts {
			pkts[i] = &packet.Packet{Labels: st, Labeled: true, Key: flow(1)}
			froms[i] = prev
		}
		f.ProcessBatch(pkts, froms, &res)
		gated, _, _ := f.EndMigration(m)
		// Gated packets re-run through the pipeline, as the coordinator
		// would after the handoff.
		for _, p := range gated {
			if _, err := f.Process(p, prev); err != nil {
				t.Fatalf("iter %d: re-emit: %v", iter, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if f.MigrationActive() {
		t.Fatal("migration gate left open")
	}
}
