package dht

import (
	"switchboard/internal/flowtable"
	"switchboard/internal/labels"
)

// Migration support, mirroring flowtable.Table's FlowsPinnedTo /
// RepinFlows on the replicated store: enumeration visits every member's
// partition (deduplicating replicas), and a repin rewrites the record on
// every store holding it so all replicas agree on the new pin.

// FlowsPinnedTo returns the canonical keys of every connection of stack
// st pinned to the given VNF instance hop.
func (c *Cluster) FlowsPinnedTo(st labels.Stack, hop flowtable.Hop) []flowtable.Key {
	seen := make(map[flowtable.Key]bool)
	var out []flowtable.Key
	for _, s := range c.ring.Load().all() {
		s.mu.Lock()
		for k, e := range s.m {
			if k.Chain == st.Chain && k.Egress == st.Egress && e.rec.VNF == hop && !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
		s.mu.Unlock()
	}
	return out
}

// RepinFlows rewrites the given connections' records from one VNF
// instance hop to another on every replica, stamping ann. Only records
// still pinned to `from` move. Returns the number of distinct
// connections moved.
func (c *Cluster) RepinFlows(st labels.Stack, flows []flowtable.Key, from, to flowtable.Hop, ann uint8) (moved int) {
	stores := c.ring.Load().all()
	for _, k := range flows {
		if k.Chain != st.Chain || k.Egress != st.Egress {
			continue
		}
		touched := false
		for _, s := range stores {
			s.mu.Lock()
			if e, ok := s.m[k]; ok && e.rec.VNF == from {
				e.rec.VNF = to
				e.rec.Ann = ann
				s.m[k] = e
				touched = true
			}
			s.mu.Unlock()
		}
		if touched {
			moved++
		}
	}
	return moved
}

// FlowsPinnedTo delegates to the cluster.
func (n *Node) FlowsPinnedTo(st labels.Stack, hop flowtable.Hop) []flowtable.Key {
	return n.c.FlowsPinnedTo(st, hop)
}

// RepinFlows delegates to the cluster.
func (n *Node) RepinFlows(st labels.Stack, flows []flowtable.Key, from, to flowtable.Hop, ann uint8) int {
	return n.c.RepinFlows(st, flows, from, to, ann)
}
