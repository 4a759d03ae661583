package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"switchboard/internal/controller"
	"switchboard/internal/edge"
	"switchboard/internal/labels"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
)

// chainWorkload is a data-path workload: one chain A→B through a
// firewall at A and a NAT at B, two instances of each, driven by one
// client goroutine holding window requests outstanding over flows
// distinct connections, with one server goroutine echoing them.
type chainWorkload struct {
	flows, window int
	// opsPerSecond sets the measured operation count: opsPerSecond times
	// --seconds, so every run with the same --seconds does the same work.
	opsPerSecond int
	// warm is the number of round trips before measuring; it covers
	// every flow at least once, so the measured phase creates no state.
	warm int
}

var chainSites = []simnet.SiteID{"A", "B"}

// chainRun is one deployed chain and the benchmark's traffic endpoints.
type chainRun struct {
	w       chainWorkload
	d       *deployment
	tr      *tracer
	rec     *controller.RouteRecord
	fw, nat *controller.VNFController
	client  *simnet.Endpoint
	server  *simnet.Endpoint
	ingress simnet.Addr // ingress edge instance, where the client sends
	egress  simnet.Addr // egress edge instance, where the server replies
	flows   []packet.FlowKey
	order   []int32 // order[seq % flows] is the flow of request seq
	faults  int

	// Server-side state, owned by the server goroutine until it exits.
	aff      *affinityMap
	serveErr error
}

// flowOf returns the index of the flow request seq uses.
func (c *chainRun) flowOf(seq uint64) int { return int(c.order[seq%uint64(len(c.order))]) }

// makeFlows draws n distinct client connections from 8 client addresses
// inside 10.1.0.0/16 toward the server's port 80.
func makeFlows(rng *rand.Rand, n int) (flows []packet.FlowKey, clientIPs []uint32) {
	seenIP := make(map[uint32]bool)
	for len(clientIPs) < 8 {
		ip := uint32(insideNet|0x10000) | uint32(1+rng.Intn(0xfffe))
		if !seenIP[ip] {
			seenIP[ip] = true
			clientIPs = append(clientIPs, ip)
		}
	}
	seen := make(map[packet.FlowKey]bool, n)
	for len(flows) < n {
		k := packet.FlowKey{
			SrcIP: clientIPs[rng.Intn(len(clientIPs))], DstIP: serverIP,
			SrcPort: uint16(1024 + rng.Intn(65536-1024)), DstPort: serverPort, Proto: 6,
		}
		if !seen[k] {
			seen[k] = true
			flows = append(flows, k)
		}
	}
	return flows, clientIPs
}

// setupChain deploys the chain and its traffic endpoints.
func setupChain(w chainWorkload, seed int64, tr *tracer) (*chainRun, error) {
	d, err := newDeployment(seed, chainSites...)
	if err != nil {
		return nil, err
	}
	c := &chainRun{w: w, d: d, tr: tr}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	g := d.bed.G
	g.InstancesPerSite = 2
	routeThrough(g, tr)
	c.fw = d.bed.AddVNF(controller.VNFConfig{
		Name: "fw", Factory: firewallFactory(tr), LoadPerUnit: 1, LabelAware: true,
		Capacity: map[simnet.SiteID]float64{"A": 1000},
	})
	c.nat = d.bed.AddVNF(controller.VNFConfig{
		Name: "nat", Factory: natFactory(tr), LoadPerUnit: 1, LabelAware: true,
		Capacity: map[simnet.SiteID]float64{"B": 1000},
	})
	a, err := d.admit(controller.Spec{
		ID: "web", IngressSite: "A", EgressSite: "B",
		VNFs: []string{"fw", "nat"}, ForwardRate: 10, ReverseRate: 10,
	}, 2*time.Second, tr, 0, &c.faults)
	if err != nil {
		return nil, err
	}
	c.rec = a.rec
	in, eg, err := g.ConfigureChainEdges(c.rec, []edge.MatchRule{{}})
	if err != nil {
		return nil, err
	}
	c.ingress, c.egress = in.Addr(), eg.Addr()
	// Queues hold a whole window, so the endpoints never drop.
	if c.client, err = d.bed.Net.Attach(simnet.Addr{Site: "A", Host: "client"}, 4*w.window+64); err != nil {
		return nil, err
	}
	if c.server, err = d.bed.Net.Attach(simnet.Addr{Site: "B", Host: "server"}, 4*w.window+64); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var clientIPs []uint32
	c.flows, clientIPs = makeFlows(rng, w.flows)
	for _, ip := range clientIPs {
		in.RegisterHost(ip, c.client.Addr())
	}
	eg.RegisterHost(serverIP, c.server.Addr())
	c.order = make([]int32, w.flows)
	for i, f := range rng.Perm(w.flows) {
		c.order[i] = int32(f)
	}
	c.aff = newAffinityMap(w.flows)
	ok = true
	return c, nil
}

// serve echoes every request back through the egress edge until the
// server's endpoint is detached. It checks each request against the
// flow its sequence number names and records the NAT's port per flow.
func (c *chainRun) serve() {
	msgs := make([]simnet.Message, 64)
	for {
		n := c.server.RecvBatch(msgs)
		if n == 0 {
			return
		}
		out := packet.GetBatch()
		for k := 0; k < n; k++ {
			switch pl := msgs[k].Payload.(type) {
			case *packet.Packet:
				c.serveOne(pl, out)
			case *packet.Batch:
				for _, p := range pl.Pkts {
					c.serveOne(p, out)
				}
				packet.PutBatch(pl)
			}
			msgs[k] = simnet.Message{}
		}
		if err := sendOut(c.server, c.egress, out); err != nil && c.serveErr == nil {
			c.serveErr = fmt.Errorf("server send: %w", err)
		}
	}
}

func (c *chainRun) serveOne(p *packet.Packet, out *packet.Batch) {
	if len(p.Payload) != payloadLen {
		c.failServe(fmt.Errorf("request payload of %d bytes", len(p.Payload)))
		return
	}
	seq := binary.BigEndian.Uint64(p.Payload)
	flow := c.flowOf(seq)
	if err := checkRequest(c.flows[flow], p.Key, natPublicIP); err != nil {
		c.failServe(fmt.Errorf("request %d: %w", seq, err))
	} else if err := c.aff.observe(flow, p.Key.SrcPort); err != nil {
		c.failServe(fmt.Errorf("request %d: %w", seq, err))
	}
	p.Key = p.Key.Reverse()
	out.Append(p, wireSize(p))
}

func (c *chainRun) failServe(err error) {
	if c.serveErr == nil {
		c.serveErr = err
	}
}

// sendOut sends a burst as one message, or a lone packet on its own.
func sendOut(ep *simnet.Endpoint, to simnet.Addr, out *packet.Batch) error {
	switch out.Len() {
	case 0:
		packet.PutBatch(out)
		return nil
	case 1:
		err := ep.Send(to, out.Pkts[0], out.Sizes[0])
		packet.PutBatch(out)
		return err
	default:
		return ep.SendBatch(to, out)
	}
}

// fill turns p into request seq.
func (c *chainRun) fill(p *packet.Packet, seq uint64) {
	p.Key = c.flows[c.flowOf(seq)]
	p.Labels, p.Labeled, p.Ann, p.Trace = labels.Stack{}, false, 0, nil
	p.Payload = binary.BigEndian.AppendUint64(p.Payload[:0], seq)
	p.Payload = binary.BigEndian.AppendUint64(p.Payload, uint64(now()))
}

// drive runs the warm-up and then n measured round trips in a closed
// loop: the client keeps the workload's window of requests outstanding
// and sends the next request as each response arrives. Every response is
// checked against the request its sequence number names. In a traced
// run the second half of the measured round trips runs with tracing on.
func (c *chainRun) drive(n int, res *report) error {
	warm := uint64(c.w.warm)
	total := warm + uint64(n)
	res.lat = make([]int64, n)
	led := newLedger(total)
	net := c.d.bed.Net
	traced := c.tr != nil
	split := warm + uint64(n/2)

	var progress atomic.Uint64
	ctx, cancel := context.WithCancel(context.Background())
	stopWatch := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() { // cancels the receive when responses stop arriving
		defer watch.Done()
		defer cancel()
		last, idle := progress.Load(), 0
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopWatch:
				return
			case <-tick.C:
			}
			if p := progress.Load(); p != last {
				last, idle = p, 0
			} else if idle++; idle >= 20 {
				return
			}
		}
	}()
	defer func() {
		close(stopWatch)
		watch.Wait()
	}()

	var sent, received uint64
	out := packet.GetBatch()
	for ; sent < uint64(c.w.window) && sent < total; sent++ {
		p := &packet.Packet{Payload: make([]byte, 0, payloadLen)}
		c.fill(p, sent)
		out.Append(p, wireSize(p))
	}
	if err := sendOut(c.client, c.ingress, out); err != nil {
		return fmt.Errorf("client send: %w", err)
	}
	mark := func() { // phase boundaries, at fixed response counts
		switch received {
		case warm:
			res.setup = time.Since(procStart)
			res.ph.start()
			res.msgs0 = net.Stats().MsgsSent
		case split:
			if traced {
				res.ph.stop()
				res.msgs1 = net.Stats().MsgsSent
				c.tr.measureOps(true)
				res.layerPh.start()
				res.layerMsgs0, res.layerSends0 = net.Stats().MsgsSent, c.d.dataPathSends(chainSites, c.vnfs())
			}
		case total:
			if traced {
				res.layerPh.stop()
				res.layerMsgs1, res.layerSends1 = net.Stats().MsgsSent, c.d.dataPathSends(chainSites, c.vnfs())
				c.tr.measureOps(false)
			} else {
				res.ph.stop()
				res.msgs1 = net.Stats().MsgsSent
			}
		}
	}
	msgs := make([]simnet.Message, 4*c.w.window+64)
	for received < total {
		k := c.client.RecvBatchContext(ctx, msgs)
		if k == 0 {
			return fmt.Errorf("responses stopped: %d of %d requests answered", received, total)
		}
		at := now()
		out := packet.GetBatch()
		for i := 0; i < k; i++ {
			var one [1]*packet.Packet
			pkts := one[:0]
			switch pl := msgs[i].Payload.(type) {
			case *packet.Packet:
				pkts = append(pkts, pl)
			case *packet.Batch:
				pkts = pl.Pkts
			}
			for _, p := range pkts {
				if len(p.Payload) != payloadLen {
					return fmt.Errorf("response payload of %d bytes", len(p.Payload))
				}
				seq := binary.BigEndian.Uint64(p.Payload)
				sentAt := int64(binary.BigEndian.Uint64(p.Payload[8:]))
				if err := led.receive(seq, sent); err != nil {
					return err
				}
				if err := checkResponse(c.flows[c.flowOf(seq)], p.Key); err != nil {
					return fmt.Errorf("response %d: %w", seq, err)
				}
				received++
				if received > warm {
					res.lat[received-warm-1] = at - sentAt
					if traced && received > split {
						c.tr.record(layerOp, seq, sentAt, at)
					}
				}
				if received == warm || received == split || received == total {
					mark()
				}
				if sent < total {
					c.fill(p, sent)
					sent++
					out.Append(p, wireSize(p))
				}
			}
			if b, ok := msgs[i].Payload.(*packet.Batch); ok {
				packet.PutBatch(b)
			}
			msgs[i] = simnet.Message{}
		}
		progress.Store(received)
		if err := sendOut(c.client, c.ingress, out); err != nil {
			return fmt.Errorf("client send: %w", err)
		}
	}
	return led.complete(sent)
}

func (c *chainRun) vnfs() []*controller.VNFController {
	return []*controller.VNFController{c.fw, c.nat}
}

// finish checks that nothing is left in flight and nothing was dropped,
// then stops the server. It must run after drive returns.
func (c *chainRun) finish(serverDone <-chan struct{}) error {
	// Anything still arriving now is a response nobody asked for.
	time.Sleep(20 * time.Millisecond)
	extra := c.client.TryRecvBatch(make([]simnet.Message, 16))
	c.d.bed.Net.Detach(c.server.Addr())
	<-serverDone
	switch {
	case c.serveErr != nil:
		return c.serveErr
	case extra > 0:
		return fmt.Errorf("%d unexpected messages reached the client after the run", extra)
	}
	if ns := c.d.bed.Net.Stats(); ns.DropsQueueFull != 0 {
		return fmt.Errorf("network dropped %d messages at full queues", ns.DropsQueueFull)
	}
	if fwd, v := c.d.dataPathDrops(chainSites, c.vnfs()); fwd != 0 || v != 0 {
		return fmt.Errorf("data path dropped packets: %d at forwarders, %d at VNFs", fwd, v)
	}
	return nil
}

// runChain runs chain_light or chain_loaded.
func runChain(w chainWorkload, cfg config) (*report, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		tr.enable(true) // time the setup admission
	}
	c, err := setupChain(w, cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	defer c.d.close()
	tr.enable(false)
	n := w.opsPerSecond * cfg.seconds
	res := &report{attempted: n, ph: newPhase(), faults: c.faults, tr: tr}
	if cfg.trace {
		res.layerPh = newPhase()
	}
	serverDone := make(chan struct{})
	go func() {
		defer close(serverDone)
		c.serve()
	}()
	if err := c.drive(n, res); err != nil {
		c.d.bed.Net.Detach(c.server.Addr())
		<-serverDone
		return res, err
	}
	res.liveHeap = liveHeapAfterGC()
	if err := c.finish(serverDone); err != nil {
		return res, err
	}
	if !cfg.trace {
		return res, nil
	}
	pkts := res.layerSends1 - res.layerSends0 + 2*uint64(n-n/2)
	res.pktsPerMsg = float64(pkts) / float64(res.layerMsgs1-res.layerMsgs0)
	res.replay = replay(c.flows, stackOf(c.rec), int(res.pktsPerMsg+0.5), cfg.seed)
	tr.enable(true) // time the teardown
	t0 := now()
	err = c.d.bed.G.DeleteChain(c.rec.Chain)
	tr.record(layerDelete, 0, t0, now())
	tr.enable(false)
	if err != nil {
		return res, fmt.Errorf("deleting chain: %w", err)
	}
	return res, c.d.waitGone(stackOf(c.rec), 2*time.Second)
}
