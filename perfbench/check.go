package main

import (
	"fmt"
	"math"
	"sort"

	"switchboard/internal/controller"
	"switchboard/internal/packet"
	"switchboard/internal/simnet"
)

// The checks below compare the program's outputs with facts the
// benchmark establishes on its own: the flows it sent, the routes the
// Global Switchboard returned, and the capacities it configured.

// checkRequest checks a request as the server receives it: its source is
// rewritten to the NAT's public address and its destination is the one
// the client sent.
func checkRequest(orig, got packet.FlowKey, natIP uint32) error {
	if got.SrcIP != natIP {
		return fmt.Errorf("source %08x was not rewritten to the NAT address %08x", got.SrcIP, natIP)
	}
	if got.DstIP != orig.DstIP || got.DstPort != orig.DstPort || got.Proto != orig.Proto {
		return fmt.Errorf("destination changed: sent %v, server saw %v", orig, got)
	}
	return nil
}

// checkResponse checks that a response's 5-tuple is exactly the reverse
// of its request's original tuple.
func checkResponse(orig, got packet.FlowKey) error {
	if got != orig.Reverse() {
		return fmt.Errorf("response tuple %v is not the reverse of request %v", got, orig)
	}
	return nil
}

// affinityMap is the benchmark's map from flow to the NAT's public port.
// Flow affinity means the map stays the same for the whole run and is
// one-to-one: every packet of a connection crosses the same NAT
// instance, which keeps one binding per connection.
type affinityMap struct {
	port       []uint16 // by flow; 0 = not seen yet
	flowOfPort []int32  // by port; -1 = unused
}

func newAffinityMap(flows int) *affinityMap {
	a := &affinityMap{port: make([]uint16, flows), flowOfPort: make([]int32, 1<<16)}
	for i := range a.flowOfPort {
		a.flowOfPort[i] = -1
	}
	return a
}

func (a *affinityMap) observe(flow int, port uint16) error {
	switch have := a.port[flow]; {
	case have == port:
		return nil
	case have != 0:
		return fmt.Errorf("flow %d moved from public port %d to %d", flow, have, port)
	case a.flowOfPort[port] >= 0:
		return fmt.Errorf("flows %d and %d share public port %d", a.flowOfPort[port], flow, port)
	}
	a.port[flow] = port
	a.flowOfPort[port] = int32(flow)
	return nil
}

// ledger checks that every request gets exactly one response.
type ledger struct {
	got []uint64 // bit per sequence number
	n   uint64
}

func newLedger(total uint64) *ledger { return &ledger{got: make([]uint64, (total+63)/64)} }

// receive records the response to request seq, of sent requests so far.
func (l *ledger) receive(seq, sent uint64) error {
	if seq >= sent {
		return fmt.Errorf("response to request %d, which was never sent", seq)
	}
	w, bit := seq/64, uint64(1)<<(seq%64)
	if l.got[w]&bit != 0 {
		return fmt.Errorf("second response to request %d", seq)
	}
	l.got[w] |= bit
	l.n++
	return nil
}

// complete checks that all sent requests were answered.
func (l *ledger) complete(sent uint64) error {
	if l.n != sent {
		return fmt.Errorf("%d of %d requests got no response", sent-l.n, sent)
	}
	return nil
}

// vnfSites maps each VNF to the sites where it has capacity.
type vnfSites map[string]map[simnet.SiteID]float64

// checkRoute checks a route record: at every stage the split weights sum
// to 1, each VNF's stage is placed only at sites where that VNF has
// capacity, and the last stage ends at the egress site.
func checkRoute(rec *controller.RouteRecord, capacity vnfSites) error {
	sums := make([]float64, rec.Stages()+1)
	for _, s := range rec.Splits {
		if s.Stage < 1 || s.Stage > rec.Stages() {
			return fmt.Errorf("chain %s: split at stage %d of %d", rec.Chain, s.Stage, rec.Stages())
		}
		if s.Weight < 0 {
			return fmt.Errorf("chain %s: negative weight at stage %d", rec.Chain, s.Stage)
		}
		sums[s.Stage] += s.Weight
		if s.Stage <= len(rec.VNFs) {
			name := rec.VNFs[s.Stage-1]
			if capacity[name][s.To] <= 0 {
				return fmt.Errorf("chain %s: stage %d places %s at %s, which has no %s capacity", rec.Chain, s.Stage, name, s.To, name)
			}
		} else if s.To != rec.EgressSite {
			return fmt.Errorf("chain %s: last stage ends at %s, not egress %s", rec.Chain, s.To, rec.EgressSite)
		}
	}
	for z := 1; z <= rec.Stages(); z++ {
		if math.Abs(sums[z]-1) > 1e-9 {
			return fmt.Errorf("chain %s: stage %d weights sum to %g", rec.Chain, z, sums[z])
		}
	}
	return nil
}

// routeLoads computes the compute load the routes place on each VNF at
// each site: a VNF's load is its load per unit times the traffic
// entering it plus the traffic leaving it (forward plus reverse, the
// same at every stage).
func routeLoads(recs []*controller.RouteRecord, traffic float64, loadPerUnit map[string]float64) vnfSites {
	out := make(vnfSites)
	for _, rec := range recs {
		for j, name := range rec.VNFs {
			if out[name] == nil {
				out[name] = make(map[simnet.SiteID]float64)
			}
			for _, s := range rec.Splits {
				if s.Stage == j+1 {
					out[name][s.To] += loadPerUnit[name] * traffic * s.Weight
				}
				if s.Stage == j+2 {
					out[name][s.From] += loadPerUnit[name] * traffic * s.Weight
				}
			}
		}
	}
	return out
}

// checkCapacity checks that, for every VNF and site, capacity minus the
// load computed from the standing routes equals the remaining capacity
// the VNF controller reports, and is never negative.
func checkCapacity(capacity, load, remaining vnfSites) error {
	names := make([]string, 0, len(capacity))
	for name := range capacity {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for site, c := range capacity[name] {
			left := c - load[name][site]
			if left < -1e-6 {
				return fmt.Errorf("%s at %s over-committed: load %.6f exceeds capacity %.6f", name, site, load[name][site], c)
			}
			if got := remaining[name][site]; math.Abs(got-left) > 1e-6*math.Max(1, c) {
				return fmt.Errorf("%s at %s reports %.6f remaining, routes leave %.6f", name, site, got, left)
			}
		}
		for site, l := range load[name] {
			if _, ok := capacity[name][site]; !ok && l > 0 {
				return fmt.Errorf("%s carries load %.6f at %s, where it has no capacity", name, l, site)
			}
		}
	}
	return nil
}

// checkLabels checks that standing chains have distinct chain labels.
func checkLabels(recs []*controller.RouteRecord) error {
	seen := make(map[uint32]controller.ChainID, len(recs))
	for _, rec := range recs {
		if other, dup := seen[rec.ChainLabel]; dup {
			return fmt.Errorf("chains %s and %s share label %d", other, rec.Chain, rec.ChainLabel)
		}
		seen[rec.ChainLabel] = rec.Chain
	}
	return nil
}
