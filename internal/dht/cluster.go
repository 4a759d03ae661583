package dht

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"switchboard/internal/flowtable"
	"switchboard/internal/labels"
	"switchboard/internal/packet"
)

// Cluster is a site-local group of forwarder nodes sharing one
// replicated flow table. Each member obtains a *Node handle that
// implements the forwarder's flow-store operations; writes are
// synchronously replicated to `replicas` owners on the ring, reads fall
// through the owners in order, so any member (or a member that takes
// over a failed peer's VNF instances) sees every connection's pinned
// hops.
//
// Membership lives in an immutable ring snapshot. Join, Fail and Leave
// build a new one and swap it in under mu; every other operation loads
// the current snapshot without taking mu.
type Cluster struct {
	replicas int

	mu    sync.Mutex // serialises membership changes
	ring  atomic.Pointer[ring]
	epoch atomic.Uint32
}

// store is one member's local partition.
type store struct {
	name string
	mu   sync.Mutex
	m    map[flowtable.Key]entry
}

type entry struct {
	rec          flowtable.Record
	fwdCanonical bool
	epoch        uint32
}

// NewCluster returns an empty cluster replicating each record to up to
// `replicas` members (minimum 1; the paper's fault-tolerance goal needs
// at least 2).
func NewCluster(replicas int) *Cluster {
	c := &Cluster{replicas: max(replicas, 1)}
	c.ring.Store(newRing(nil, nil, c.replicas))
	return c
}

// swapLocked publishes the snapshot for the given membership. The
// caller holds c.mu.
func (c *Cluster) swapLocked(members, leaving []*store) {
	c.ring.Store(newRing(members, leaving, c.replicas))
}

// without returns set minus st, leaving set itself unmodified.
func without(set []*store, st *store) []*store {
	return slices.DeleteFunc(slices.Clone(set), func(s *store) bool { return s == st })
}

// Join adds a member and returns its flow-store handle. Existing records
// are re-replicated so the new member immediately owns its share.
func (c *Cluster) Join(node string) (*Node, error) {
	c.mu.Lock()
	r := c.ring.Load()
	if _, dup := r.member(node); dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("dht: node %s already joined", node)
	}
	st := &store{name: node, m: make(map[flowtable.Key]entry)}
	c.swapLocked(append(slices.Clone(r.members), st), r.leaving)
	c.mu.Unlock()
	c.Repair()
	return &Node{c: c, name: node}, nil
}

// Fail removes a member abruptly, losing its local partition (a crash).
// Surviving replicas keep the records available; Repair restores the
// replication factor on the remaining members.
func (c *Cluster) Fail(node string) {
	c.mu.Lock()
	r := c.ring.Load()
	if st, ok := r.member(node); ok {
		c.swapLocked(without(r.members, st), without(r.leaving, st))
	}
	c.mu.Unlock()
	c.Repair()
}

// Leave removes a member gracefully: its records are re-replicated
// before the partition is dropped (scale-in). While it hands them off
// the member owns no keys, but removals, eviction and migration still
// reach its partition.
func (c *Cluster) Leave(node string) {
	c.mu.Lock()
	r := c.ring.Load()
	st, ok := r.member(node)
	if !ok || !slices.Contains(r.members, st) {
		c.mu.Unlock()
		return
	}
	c.swapLocked(without(r.members, st), append(slices.Clone(r.leaving), st))
	c.mu.Unlock()

	// Push this node's records to their new owners, then drop it.
	for k, e := range st.records() {
		c.replicate(k, e)
	}
	c.mu.Lock()
	r = c.ring.Load()
	c.swapLocked(r.members, without(r.leaving, st))
	c.mu.Unlock()
}

// Members returns the current member names in sorted order.
func (c *Cluster) Members() []string {
	r := c.ring.Load()
	out := make([]string, len(r.members))
	for i, st := range r.members {
		out[i] = st.name
	}
	return out
}

// records copies the partition's contents.
func (s *store) records() map[flowtable.Key]entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[flowtable.Key]entry, len(s.m))
	for k, e := range s.m {
		out[k] = e
	}
	return out
}

// replicate writes the entry to every current owner of the key. The
// owners come from the snapshot loaded here, so a membership change
// swapped in before the writes land finds them on the old owners, just
// as when the owners were read under a lock released before writing;
// the Repair that Join and Fail run afterwards re-replicates them.
func (c *Cluster) replicate(k flowtable.Key, e entry) {
	for _, st := range c.ring.Load().ownersOf(k.Flow.Hash()) {
		st.mu.Lock()
		st.m[k] = e
		st.mu.Unlock()
	}
}

func canonicalKey(st labels.Stack, flow packet.FlowKey) (flowtable.Key, bool) {
	cf, same := flow.Canonical()
	return flowtable.Key{Chain: st.Chain, Egress: st.Egress, Flow: cf}, same
}

// Repair re-establishes the replication factor: every record found on
// any member is copied to all of the key's current owners. Called after
// membership changes; cheap at site scale (one site's connections).
func (c *Cluster) Repair() {
	for _, st := range c.ring.Load().all() {
		for k, e := range st.records() {
			c.replicate(k, e)
		}
	}
}

// Len returns the number of distinct connections stored (records are
// counted once regardless of replication).
func (c *Cluster) Len() int {
	seen := make(map[flowtable.Key]bool)
	for _, st := range c.ring.Load().all() {
		st.mu.Lock()
		for k := range st.m {
			seen[k] = true
		}
		st.mu.Unlock()
	}
	return len(seen)
}

// Node is one member's handle, implementing the forwarder flow-store
// operations (the same contract as flowtable.Table).
type Node struct {
	c    *Cluster
	name string
}

// Name returns the member name.
func (n *Node) Name() string { return n.name }

// Insert stores a connection record, replicated to the key's owners.
func (n *Node) Insert(st labels.Stack, flow packet.FlowKey, rec flowtable.Record) {
	k, fwdCanonical := canonicalKey(st, flow)
	n.c.replicate(k, entry{rec: rec, fwdCanonical: fwdCanonical, epoch: n.c.epoch.Load()})
}

// Lookup consults the key's owners in ring order: one hash, one binary
// search over the current snapshot and one map probe per owner, with no
// allocation and no cluster-wide lock.
func (n *Node) Lookup(st labels.Stack, flow packet.FlowKey) (flowtable.Record, bool, bool) {
	k, same := canonicalKey(st, flow)
	epoch := n.c.epoch.Load()
	for _, s := range n.c.ring.Load().ownersOf(k.Flow.Hash()) {
		s.mu.Lock()
		e, ok := s.m[k]
		if ok && e.epoch != epoch {
			e.epoch = epoch
			s.m[k] = e
		}
		s.mu.Unlock()
		if ok {
			return e.rec, same == e.fwdCanonical, true
		}
	}
	return flowtable.Record{}, false, false
}

// Remove deletes a connection from all partitions.
func (n *Node) Remove(st labels.Stack, flow packet.FlowKey) {
	k, _ := canonicalKey(st, flow)
	for _, s := range n.c.ring.Load().all() {
		s.mu.Lock()
		delete(s.m, k)
		s.mu.Unlock()
	}
}

// Len returns the cluster-wide distinct connection count.
func (n *Node) Len() int { return n.c.Len() }

// Advance ages the cluster's idle-tracking epoch and evicts records not
// looked up within keep epochs.
func (n *Node) Advance(keep uint32) (evicted int) {
	cur := n.c.epoch.Add(1)
	seen := make(map[flowtable.Key]bool)
	for _, s := range n.c.ring.Load().all() {
		s.mu.Lock()
		for k, e := range s.m {
			if cur-e.epoch > keep {
				delete(s.m, k)
				if !seen[k] {
					seen[k] = true
					evicted++
				}
			}
		}
		s.mu.Unlock()
	}
	return evicted
}
