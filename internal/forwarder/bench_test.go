package forwarder

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchboard/internal/dht"
	"switchboard/internal/flowtable"
	"switchboard/internal/health"
	"switchboard/internal/labels"
	"switchboard/internal/metrics"
	"switchboard/internal/packet"
	"switchboard/internal/telemetry"
)

// startBenchAgent attaches a live telemetry agent to the forwarder at a
// hostile reporting interval, publishing over a loopback into a real
// aggregator — the fleet plane must not cost the hot path its
// 0 allocs/op. The forwarder's metrics are registered first so every
// report actually samples them.
func startBenchAgent(f *Forwarder) (stop func()) {
	reg := metrics.NewRegistry()
	f.RegisterMetrics(reg)
	agent := telemetry.NewAgent(telemetry.AgentConfig{
		Site:     "bench",
		Registry: reg,
		Bus:      telemetry.NewLoopback(telemetry.NewAggregator(telemetry.AggregatorConfig{})),
		Topic:    telemetry.Topic("bench"),
		Interval: time.Millisecond,
	})
	return agent.Start()
}

// Figure 7: per-packet cost of the three forwarder configurations —
// bridge, +overlay labels, +flow-affinity — across flow counts, using
// the encoded wire path (parse labels from bytes like the OVS pipeline
// parses headers).
func benchmarkMode(b *testing.B, mode Mode, flows int) {
	f := New("bench", mode, 16)
	st := labels.Stack{Chain: 77, Egress: 9}
	vnf := f.AddHop(NextHop{Kind: KindVNF, Addr: addr("A", "vnf"), LabelAware: true})
	next := f.AddHop(NextHop{Kind: KindForwarder, Addr: addr("B", "peer")})
	prev := f.AddHop(NextHop{Kind: KindEdge, Addr: addr("A", "edge")})
	f.InstallRule(st, RuleSpec{
		LocalVNF: []WeightedHop{{vnf, 1}},
		Next:     []WeightedHop{{next, 1}},
		Prev:     []WeightedHop{{prev, 1}},
	})
	f.SetBridgeTarget(next)

	pkts := make([]*packet.Packet, flows)
	for i := range pkts {
		pkts[i] = &packet.Packet{
			Labels: st, Labeled: true,
			Key: packet.FlowKey{
				SrcIP: 0x0A000000 + uint32(i), DstIP: 0xC0A80001,
				SrcPort: uint16(1024 + i%60000), DstPort: 80, Proto: 6,
			},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i%flows]
		if _, err := f.Process(p, prev); err != nil {
			b.Fatal(err)
		}
		p.Labeled = true // reset any stripping for reuse
	}
	b.StopTimer()
	reportPps(b)
}

func reportPps(b *testing.B) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec/1e6, "Mpps")
	}
}

func BenchmarkFig7Forwarder(b *testing.B) {
	for _, flows := range []int{1, 10, 50} {
		for _, mc := range []struct {
			name string
			mode Mode
		}{
			{"bridge", ModeBridge},
			{"labels", ModeLabels},
			{"affinity", ModeAffinity},
		} {
			b.Run(fmt.Sprintf("%s/flows=%d", mc.name, flows), func(b *testing.B) {
				benchmarkMode(b, mc.mode, flows)
			})
		}
	}
}

// BenchmarkForwarderRuleWrite measures the control-plane write side of
// the copy-on-write rule snapshot at 1,000 installed rules: a rule
// install (one clone of the snapshot), a removal of a rule the forwarder
// holds (one clone), and a removal of a stack it does not hold (no clone).
func BenchmarkForwarderRuleWrite(b *testing.B) {
	const rules = 1000
	setup := func() (*Forwarder, RuleSpec) {
		f := New("bench", ModeAffinity, 16)
		next := f.AddHop(NextHop{Kind: KindForwarder, Addr: addr("B", "peer")})
		spec := RuleSpec{Chain: "bench", Next: []WeightedHop{{next, 1}}}
		for c := uint32(1); c <= rules; c++ {
			f.InstallRule(labels.Stack{Chain: c, Egress: 1}, spec)
		}
		return f, spec
	}
	b.Run("install", func(b *testing.B) {
		f, spec := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.InstallRule(labels.Stack{Chain: uint32(1 + i%rules), Egress: 1}, spec)
		}
	})
	b.Run("remove-present", func(b *testing.B) {
		f, spec := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := labels.Stack{Chain: uint32(1 + i%rules), Egress: 1}
			f.RemoveRule(st)
			b.StopTimer()
			f.InstallRule(st, spec)
			b.StartTimer()
		}
	})
	b.Run("remove-absent", func(b *testing.B) {
		f, _ := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.RemoveRule(labels.Stack{Chain: uint32(1 + i%rules), Egress: 2})
		}
	})
}

// Batched fast path: ProcessBatch at the swept burst sizes, against the
// same rule set as Fig7. The delta between the sub-benchmarks is the
// burst amortization itself (rule resolution, shard locks, counter
// flushes per packet). affinity-dht runs the affinity path over a member
// of a two-replica dht cluster, the store a Local Switchboard deploys.
func BenchmarkForwarderBatch(b *testing.B) {
	for _, mc := range []struct {
		name  string
		mode  Mode
		store func() FlowStore
	}{
		{"labels", ModeLabels, nil},
		{"affinity", ModeAffinity, nil},
		{"affinity-dht", ModeAffinity, dhtStore},
	} {
		for _, batch := range []int{1, 8, 32, 64} {
			b.Run(fmt.Sprintf("%s/batch=%d", mc.name, batch), func(b *testing.B) {
				f := New("bench", mc.mode, 16)
				if mc.store != nil {
					f = NewWithStore("bench", mc.mode, mc.store())
				}
				benchmarkProcessBatch(b, f, batch)
			})
		}
	}
}

// dhtStore returns the only member of a fresh two-replica dht cluster.
func dhtStore() FlowStore {
	n, err := dht.NewCluster(2).Join("bench")
	if err != nil {
		panic(err) // a fresh cluster has no member to collide with
	}
	return n
}

func benchmarkProcessBatch(b *testing.B, f *Forwarder, batch int) {
	st := labels.Stack{Chain: 77, Egress: 9}
	next := f.AddHop(NextHop{Kind: KindForwarder, Addr: addr("B", "peer")})
	prev := f.AddHop(NextHop{Kind: KindEdge, Addr: addr("A", "edge")})
	f.InstallRule(st, RuleSpec{
		Next: []WeightedHop{{next, 1}},
		Prev: []WeightedHop{{prev, 1}},
	})
	f.SetBridgeTarget(next)

	const flows = 64
	pkts := make([]*packet.Packet, batch)
	froms := make([]flowtable.Hop, batch)
	for i := range pkts {
		pkts[i] = benchPacket(st, 0, i%flows)
		froms[i] = prev
	}
	var res BatchResult
	// Runtime vitals sample concurrently at a hostile interval: the
	// health harness must not cost the hot path its 0 allocs/op.
	stopVitals := health.NewVitals(time.Millisecond).Start()
	defer stopVitals()
	stopAgent := startBenchAgent(f)
	defer stopAgent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ProcessBatch(pkts, froms, &res)
		for _, p := range pkts {
			p.Labeled = true
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)*float64(batch)/sec/1e6, "Mpps")
	}
}

// BenchmarkForwarderParallel drives one forwarder's ProcessBatch from
// GOMAXPROCS goroutines at once over the RCU snapshot path — the
// multi-core RunnerPool's processing pattern without the simnet I/O.
// Each goroutine owns its packets, froms, and BatchResult, exactly like
// a pool core, and the labels path is asserted allocation-free per
// burst: the zero-alloc-per-core guarantee the multi-core refactor
// must preserve.
func BenchmarkForwarderParallel(b *testing.B) {
	for _, mc := range []struct {
		name string
		mode Mode
	}{
		{"labels", ModeLabels},
		{"affinity", ModeAffinity},
	} {
		b.Run(mc.name, func(b *testing.B) {
			f := NewWithStore("bench", mc.mode, flowtable.NewPartitioned(runtime.GOMAXPROCS(0), 16))
			st := labels.Stack{Chain: 77, Egress: 9}
			next := f.AddHop(NextHop{Kind: KindForwarder, Addr: addr("B", "peer")})
			prev := f.AddHop(NextHop{Kind: KindEdge, Addr: addr("A", "edge")})
			f.InstallRule(st, RuleSpec{
				Next: []WeightedHop{{next, 1}},
				Prev: []WeightedHop{{prev, 1}},
			})
			const batch = 32
			var core atomic.Uint32
			var total atomic.Uint64
			stopVitals := health.NewVitals(time.Millisecond).Start()
			defer stopVitals()
			stopAgent := startBenchAgent(f)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				c := int(core.Add(1)) - 1
				pkts := make([]*packet.Packet, batch)
				froms := make([]flowtable.Hop, batch)
				for i := range pkts {
					pkts[i] = benchPacket(st, c, i)
					froms[i] = prev
				}
				var res BatchResult
				n := uint64(0)
				for pb.Next() {
					f.ProcessBatch(pkts, froms, &res)
					n += batch
				}
				total.Add(n)
			})
			b.StopTimer()
			// Stop the agent before the allocation probe: AllocsPerRun
			// measures process-wide, and a concurrent report capture
			// would charge the hot path for agent allocations.
			stopAgent()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(total.Load())/sec/1e6, "Mpps")
			}
			if mc.mode == ModeLabels {
				assertLabelsBatchZeroAlloc(b, f, prev, st)
			}
		})
	}
}

// assertLabelsBatchZeroAlloc fails the benchmark when the labels-mode
// batch path allocates: the zero-allocation hot-path guarantee is an
// acceptance criterion, not just a metric.
func assertLabelsBatchZeroAlloc(tb testing.TB, f *Forwarder, prev flowtable.Hop, st labels.Stack) {
	const batch = 32
	pkts := make([]*packet.Packet, batch)
	froms := make([]flowtable.Hop, batch)
	for i := range pkts {
		pkts[i] = benchPacket(st, 0, i)
		froms[i] = prev
	}
	var res BatchResult
	f.ProcessBatch(pkts, froms, &res) // prime scratch
	if avg := testing.AllocsPerRun(100, func() {
		f.ProcessBatch(pkts, froms, &res)
	}); avg != 0 {
		tb.Fatalf("labels batch path allocates %.1f allocs/op, want 0", avg)
	}
}

// TestLabelsBatchZeroAlloc enforces the same guarantee in the plain
// test run (and the CI race matrix), independent of benchmarks.
func TestLabelsBatchZeroAlloc(t *testing.T) {
	f := New("z", ModeLabels, 4)
	st := labels.Stack{Chain: 77, Egress: 9}
	next := f.AddHop(NextHop{Kind: KindForwarder, Addr: addr("B", "peer")})
	prev := f.AddHop(NextHop{Kind: KindEdge, Addr: addr("A", "edge")})
	f.InstallRule(st, RuleSpec{
		Next: []WeightedHop{{next, 1}},
		Prev: []WeightedHop{{prev, 1}},
	})
	assertLabelsBatchZeroAlloc(t, f, prev, st)
}

// TestAffinityBatchZeroAlloc holds the affinity path to the labels
// path's guarantee once a burst's flows are pinned: no allocation per
// burst, over the sharded flow table (batch lookups) and over a dht
// member (per-packet lookups), with the caller's BatchResult as the
// only scratch.
func TestAffinityBatchZeroAlloc(t *testing.T) {
	for name, store := range map[string]func() FlowStore{
		"flowtable": func() FlowStore { return flowtable.New(16) },
		"dht":       dhtStore,
	} {
		t.Run(name, func(t *testing.T) {
			f := NewWithStore("z", ModeAffinity, store())
			st := labels.Stack{Chain: 77, Egress: 9}
			vnf := f.AddHop(NextHop{Kind: KindVNF, Addr: addr("A", "vnf"), LabelAware: true})
			next := f.AddHop(NextHop{Kind: KindForwarder, Addr: addr("B", "peer")})
			prev := f.AddHop(NextHop{Kind: KindEdge, Addr: addr("A", "edge")})
			f.InstallRule(st, RuleSpec{
				LocalVNF: []WeightedHop{{vnf, 1}},
				Next:     []WeightedHop{{next, 1}},
				Prev:     []WeightedHop{{prev, 1}},
			})
			const batch = 32
			pkts := make([]*packet.Packet, batch)
			froms := make([]flowtable.Hop, batch)
			for i := range pkts {
				pkts[i] = benchPacket(st, 0, i)
				froms[i] = prev
			}
			var res BatchResult
			f.ProcessBatch(pkts, froms, &res) // pins every flow
			if got := f.FlowCount(); got != batch {
				t.Fatalf("%d flows pinned, want %d", got, batch)
			}
			if avg := testing.AllocsPerRun(100, func() {
				f.ProcessBatch(pkts, froms, &res)
			}); avg != 0 {
				t.Fatalf("affinity batch path allocates %.1f allocs/op, want 0", avg)
			}
			for i, err := range res.Errs {
				if err != nil || res.Hops[i].Addr != addr("A", "vnf") {
					t.Fatalf("entry %d: hop %+v err %v, want the pinned VNF", i, res.Hops[i], err)
				}
			}
		})
	}
}

// Figure 8: horizontal scale-out — N forwarder instances, each pinned to
// its own goroutine ("core") with 512K flows, processing packets as fast
// as possible. Reports aggregate Mpps.
func BenchmarkFig8ScaleOut(b *testing.B) {
	maxCores := runtime.GOMAXPROCS(0)
	for _, cores := range []int{1, 2, 4, 6} {
		if cores > maxCores {
			continue
		}
		for _, flowsPer := range []int{8192, 524288} {
			b.Run(fmt.Sprintf("cores=%d/flows=%dK", cores, flowsPer/1024), func(b *testing.B) {
				benchScaleOut(b, cores, flowsPer)
			})
		}
	}
}

func benchScaleOut(b *testing.B, cores, flowsPer int) {
	st := labels.Stack{Chain: 77, Egress: 9}
	fwds := make([]*Forwarder, cores)
	prevs := make([]flowtable.Hop, cores)
	for c := 0; c < cores; c++ {
		f := New(fmt.Sprintf("f%d", c), ModeAffinity, 16)
		vnf := f.AddHop(NextHop{Kind: KindVNF, Addr: addr("A", fmt.Sprintf("vnf%d", c)), LabelAware: true})
		next := f.AddHop(NextHop{Kind: KindForwarder, Addr: addr("B", fmt.Sprintf("peer%d", c))})
		prev := f.AddHop(NextHop{Kind: KindEdge, Addr: addr("A", fmt.Sprintf("edge%d", c))})
		f.InstallRule(st, RuleSpec{
			LocalVNF: []WeightedHop{{vnf, 1}},
			Next:     []WeightedHop{{next, 1}},
			Prev:     []WeightedHop{{prev, 1}},
		})
		fwds[c] = f
		prevs[c] = prev
	}
	// Pre-populate the flow tables so the bench measures steady state
	// with the target table size (the paper reports throughput with the
	// tables full).
	for c := 0; c < cores; c++ {
		for i := 0; i < flowsPer; i++ {
			p := benchPacket(st, c, i)
			if _, err := fwds[c].Process(p, prevs[c]); err != nil {
				b.Fatal(err)
			}
		}
	}
	var total atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	perCore := b.N
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f := fwds[c]
			prev := prevs[c]
			// Iterate over a window of pre-built packets.
			const window = 1024
			pkts := make([]*packet.Packet, window)
			for i := range pkts {
				pkts[i] = benchPacket(st, c, i*(flowsPer/window+1)%flowsPer)
			}
			n := 0
			for i := 0; i < perCore; i++ {
				p := pkts[i%window]
				if _, err := f.Process(p, prev); err == nil {
					n++
				}
				p.Labeled = true
			}
			total.Add(uint64(n))
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(total.Load())/sec/1e6, "Mpps")
	}
	tableSize := 0
	for _, f := range fwds {
		tableSize += f.FlowCount()
	}
	b.ReportMetric(float64(tableSize)/1e6, "Mflows")
}

func benchPacket(st labels.Stack, core, i int) *packet.Packet {
	return &packet.Packet{
		Labels: st, Labeled: true,
		Key: packet.FlowKey{
			SrcIP: uint32(core)<<24 | uint32(i), DstIP: 0xC0A80001,
			SrcPort: uint16(i % 60000), DstPort: 80, Proto: 6,
		},
	}
}
