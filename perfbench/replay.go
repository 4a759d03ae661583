package main

import (
	"time"

	"switchboard/internal/dht"
	"switchboard/internal/edge"
	"switchboard/internal/flowtable"
	"switchboard/internal/forwarder"
	"switchboard/internal/labels"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
)

// replayPackets is how many packets each replay feeds through the layer
// it times, cycling over the workload's flows.
const replayPackets = 1 << 18

// replayResult holds the per-layer costs measured by feeding a
// workload's own flows, in bursts of its measured size, through each
// layer's public functions in isolation.
type replayResult struct {
	fwdNsPerPkt, fwdAllocPerBurst float64
	dhtLookupNs, ftNsPerPkt       float64
	edgeNsPerPkt, simnetNsPerMsg  float64
}

// passes returns how many passes over n flows make up replayPackets.
func passes(n int) int { return max(1, replayPackets/n) }

// replay measures every replayed layer on the flows, which belong to
// the chain with label stack st.
func replay(flows []packet.FlowKey, st labels.Stack, burst int, seed int64) replayResult {
	burst = min(max(burst, 1), packet.DefaultBatchSize)
	var r replayResult
	r.fwdNsPerPkt, r.fwdAllocPerBurst, r.dhtLookupNs = replayForwarder(flows, st, burst)
	r.ftNsPerPkt = replayFlowtable(flows, st, burst)
	r.edgeNsPerPkt = replayEdge(flows, st, seed)
	r.simnetNsPerMsg = replaySimnet(flows, burst, seed)
	return r
}

// replayForwarder builds a forwarder the way a Local Switchboard does —
// affinity mode over a member of a two-replica dht cluster — installs an
// edge rule for the chain, and feeds it the flows' requests as they
// arrive from the edge instance. The first pass pins every flow; the
// timed passes find them pinned, as in the workload's measured phase.
// It also times the deployed store's Lookup on the same keys.
func replayForwarder(flows []packet.FlowKey, st labels.Stack, burst int) (nsPerPkt, allocPerBurst, lookupNs float64) {
	node, err := dht.NewCluster(2).Join("fwd-edge")
	if err != nil {
		panic(err) // a fresh cluster has no members to collide with
	}
	f := forwarder.NewWithStore("replay/fwd-edge", forwarder.ModeAffinity, node)
	f.UseHopRegistry(forwarder.NewHopRegistry())
	local := f.AddHop(forwarder.NextHop{Kind: forwarder.KindEdge, Addr: simnet.Addr{Site: "A", Host: "edge-0"}})
	next := f.AddHop(forwarder.NextHop{Kind: forwarder.KindForwarder, Addr: simnet.Addr{Site: "A", Host: "fwd-fw"}})
	f.InstallRule(st, forwarder.RuleSpec{
		Chain:    "replay",
		LocalVNF: []forwarder.WeightedHop{{Hop: local, Weight: 1}},
		Next:     []forwarder.WeightedHop{{Hop: next, Weight: 1}},
	})
	pkts := make([]*packet.Packet, len(flows))
	froms := make([]flowtable.Hop, len(flows))
	for i := range pkts {
		pkts[i] = &packet.Packet{}
		froms[i] = local
	}
	reset := func() {
		for i, p := range pkts {
			*p = packet.Packet{Labels: st, Labeled: true, Key: flows[i]}
		}
	}
	var res forwarder.BatchResult
	pass := func() {
		for i := 0; i < len(pkts); i += burst {
			j := min(i+burst, len(pkts))
			f.ProcessBatch(pkts[i:j], froms[i:j], &res)
		}
	}
	reset()
	pass()
	rt := newRuntimeSample()
	var elapsed time.Duration
	n := passes(len(flows))
	rt.read()
	a0 := rt.heapAllocs()
	for k := 0; k < n; k++ {
		reset()
		t0 := time.Now()
		pass()
		elapsed += time.Since(t0)
	}
	rt.read()
	bursts := n * ((len(flows) + burst - 1) / burst)
	nsPerPkt = float64(elapsed.Nanoseconds()) / float64(n*len(flows))
	allocPerBurst = float64(rt.heapAllocs()-a0) / float64(bursts)

	t0 := time.Now()
	for k := 0; k < n; k++ {
		for _, fl := range flows {
			node.Lookup(st, fl)
		}
	}
	lookupNs = float64(time.Since(t0).Nanoseconds()) / float64(n*len(flows))
	return nsPerPkt, allocPerBurst, lookupNs
}

// replayFlowtable times flowtable.Table.LookupBatch on the same keys, the
// store the forwarder benchmarks use but the Local Switchboard does not
// deploy.
func replayFlowtable(flows []packet.FlowKey, st labels.Stack, burst int) float64 {
	tb := flowtable.New(16)
	for _, fl := range flows {
		tb.Insert(st, fl, flowtable.Record{VNF: 1, Next: 2})
	}
	sts := make([]labels.Stack, burst)
	for i := range sts {
		sts[i] = st
	}
	recs := make([]flowtable.Record, burst)
	fwds := make([]bool, burst)
	oks := make([]bool, burst)
	n := passes(len(flows))
	t0 := time.Now()
	for k := 0; k < n; k++ {
		for i := 0; i < len(flows); i += burst {
			j := min(i+burst, len(flows))
			m := j - i
			tb.LookupBatch(sts[:m], flows[i:j], recs[:m], fwds[:m], oks[:m])
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n*len(flows))
}

// replayEdge times edge.Instance.HandlePacket on the flows' requests at
// the ingress edge. A first pass hands it each flow's response, so the
// requests find their connection already recorded, as in the workload.
func replayEdge(flows []packet.FlowKey, st labels.Stack, seed int64) float64 {
	net := simnet.New(seed)
	defer net.Close()
	ep, err := net.Attach(simnet.Addr{Site: "A", Host: "edge-replay"}, 16)
	if err != nil {
		panic(err) // a fresh network has no endpoint at this address
	}
	e := edge.NewInstance(ep, simnet.Addr{Site: "A", Host: "fwd-edge"}, 1)
	e.AddRule(edge.MatchRule{Chain: st.Chain})
	e.AddEgressRoute(edge.EgressRoute{Egress: st.Egress})
	p := &packet.Packet{}
	for _, fl := range flows {
		*p = packet.Packet{Labels: st, Labeled: true, Key: fl.Reverse()}
		e.HandlePacket(p)
	}
	n := passes(len(flows))
	var elapsed time.Duration
	for k := 0; k < n; k++ {
		t0 := time.Now()
		for _, fl := range flows {
			p.Labels, p.Labeled, p.Key = labels.Stack{}, false, fl
			e.HandlePacket(p)
		}
		elapsed += time.Since(t0)
	}
	return float64(elapsed.Nanoseconds()) / float64(n*len(flows))
}

// replaySimnet times a burst's SendBatch and RecvBatch between two
// endpoints at one site, per message.
func replaySimnet(flows []packet.FlowKey, burst int, seed int64) float64 {
	net := simnet.New(seed)
	defer net.Close()
	a, err := net.Attach(simnet.Addr{Site: "A", Host: "replay-tx"}, 16)
	if err != nil {
		panic(err) // a fresh network has no endpoint at this address
	}
	b, err := net.Attach(simnet.Addr{Site: "A", Host: "replay-rx"}, 16)
	if err != nil {
		panic(err)
	}
	pkts := make([]*packet.Packet, burst)
	for i := range pkts {
		pkts[i] = &packet.Packet{Key: flows[i%len(flows)], Payload: make([]byte, payloadLen)}
	}
	buf := make([]simnet.Message, 1)
	msgs := replayPackets / burst
	t0 := time.Now()
	for k := 0; k < msgs; k++ {
		if burst == 1 {
			_ = a.Send(b.Addr(), pkts[0], wireSize(pkts[0]))
		} else {
			out := packet.GetBatch()
			for _, p := range pkts {
				out.Append(p, wireSize(p))
			}
			_ = a.SendBatch(b.Addr(), out)
		}
		b.RecvBatch(buf)
		if bt, ok := buf[0].Payload.(*packet.Batch); ok {
			packet.PutBatch(bt)
		}
		buf[0] = simnet.Message{}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(msgs)
}
