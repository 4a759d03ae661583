// Package controller implements Switchboard's control plane: the Global
// Switchboard (chain lifecycle, traffic engineering, two-phase-commit
// route installation — Section 4 and Figure 4), per-site Local
// Switchboards (load-balancing rule computation and forwarder management
// — Section 5.2), the edge controller, and per-VNF controllers. The
// controllers communicate through the global message bus and drive the
// forwarder/edge/VNF data plane over the simulated WAN.
package controller

import (
	"fmt"
	"time"

	"switchboard/internal/simnet"
)

// ChainID names a customer chain.
type ChainID string

// Spec is a customer's chain specification (Section 2): ingress and
// egress sites, the ordered VNFs, and traffic estimates used for the
// initial route computation.
type Spec struct {
	ID          ChainID
	IngressSite simnet.SiteID
	EgressSite  simnet.SiteID
	VNFs        []string
	// ForwardRate and ReverseRate are the customer's traffic estimates
	// in model units.
	ForwardRate float64
	ReverseRate float64
	// LatencyBudget is the customer's declared end-to-end latency SLO.
	// Zero lets the Global Switchboard default it from the TE solution's
	// achieved path latency times DefaultBudgetHeadroom.
	LatencyBudget time.Duration
}

// Validate checks the spec is well formed.
func (s Spec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("controller: chain spec missing ID")
	}
	if s.IngressSite == "" || s.EgressSite == "" {
		return fmt.Errorf("controller: chain %s missing ingress/egress", s.ID)
	}
	if len(s.VNFs) == 0 {
		return fmt.Errorf("controller: chain %s has no VNFs", s.ID)
	}
	if s.ForwardRate < 0 || s.ReverseRate < 0 {
		return fmt.Errorf("controller: chain %s has negative traffic estimate", s.ID)
	}
	return nil
}

// SiteSplit is one weighted stage edge of a chain's wide-area route: at
// stage z, fraction Weight of the traffic flows From → To.
type SiteSplit struct {
	Stage  int // 1-based
	From   simnet.SiteID
	To     simnet.SiteID
	Weight float64
}

// RouteRecord is the control-plane state published for a chain: its
// labels and the site-level splits of its wide-area route. Local
// Switchboards combine these site-level weights with per-instance weights
// to form forwarder rules (hierarchical load balancing, Section 5.2).
type RouteRecord struct {
	Chain       ChainID
	ChainLabel  uint32
	EgressLabel uint32
	IngressSite simnet.SiteID
	EgressSite  simnet.SiteID
	// ExtraIngress lists edge sites added to the chain after creation
	// (user mobility, Section 6); they route into the nearest existing
	// wide-area route.
	ExtraIngress []simnet.SiteID
	VNFs         []string
	Splits       []SiteSplit
	// Version orders one chain's records: an update is one higher than
	// the record it replaces (set under the Global Switchboard's lock).
	Version int
	// Incarnation tells apart chains that reuse an ID: each creation
	// takes the next number of a Global Switchboard-wide sequence and
	// updates keep it, so a Local Switchboard that sees it change
	// removes the old chain before applying the new one.
	Incarnation uint64
	// SpanID links the record to the Global Switchboard control-plane
	// span (obs package) that produced it, so the rule-install spans the
	// Local Switchboards record on receipt parent back to the originating
	// operation across the bus. 0 = no span recorded.
	SpanID uint64
	// LatencyBudget is the chain's end-to-end latency SLO, carried to
	// every site so the data plane (and the SLO evaluator reading its
	// metrics) knows the chain's target. Declared in the Spec or
	// defaulted by the Global Switchboard from the TE solution's
	// achieved path latency times DefaultBudgetHeadroom.
	LatencyBudget time.Duration
}

// IsIngress reports whether site ingresses traffic for the chain.
func (r *RouteRecord) IsIngress(site simnet.SiteID) bool {
	if r.IngressSite == site {
		return true
	}
	for _, s := range r.ExtraIngress {
		if s == site {
			return true
		}
	}
	return false
}

// StageSites returns the sites participating at 1-based stage z as
// destination, with their aggregate inbound weight.
func (r *RouteRecord) StageSites(z int) map[simnet.SiteID]float64 {
	out := make(map[simnet.SiteID]float64)
	for _, s := range r.Splits {
		if s.Stage == z {
			out[s.To] += s.Weight
		}
	}
	return out
}

// Stages returns the number of stages (|VNFs|+1).
func (r *RouteRecord) Stages() int { return len(r.VNFs) + 1 }

// InstanceInfo is published by VNF controllers (and, for forwarders, by
// Local Switchboards) on the message bus: an instance's address and
// load-balancing weight. LabelAware tells forwarders whether they must
// strip labels before delivery (VNF instances only).
type InstanceInfo struct {
	Addr       simnet.Addr
	Weight     float64
	LabelAware bool
}

// Event is one timestamped control-plane step.
type Event struct {
	At   time.Time
	Name string
}

// Timeline records control-plane steps for the responsiveness
// experiments (Figure 10a and Table 2).
type Timeline struct {
	ch chan Event
}

// NewTimeline returns a timeline with room for n events.
func NewTimeline(n int) *Timeline {
	return &Timeline{ch: make(chan Event, n)}
}

// Record appends an event now. It never blocks; overflow events are
// dropped. A nil Timeline records nothing, so callers on the admission
// path check for nil before formatting a message.
func (t *Timeline) Record(name string) {
	if t == nil {
		return
	}
	select {
	case t.ch <- Event{At: time.Now(), Name: name}:
	default:
	}
}

// Drain returns all recorded events in order.
func (t *Timeline) Drain() []Event {
	var out []Event
	for {
		select {
		case e := <-t.ch:
			out = append(out, e)
		default:
			return out
		}
	}
}
