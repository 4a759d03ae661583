// Package dht implements the replicated distributed-hash-table flow
// table sketched in Section 5.3 of the Switchboard paper: "a solution
// that supports elastic scaling and fault tolerance of forwarders by
// maintaining the flow table as a replicated distributed hash table
// across forwarder nodes". Connection records are placed on a
// consistent-hash ring of forwarder nodes and replicated; when a
// forwarder fails or the site scales, surviving replicas keep serving
// the flow state, so flow affinity and symmetric return outlive any
// single forwarder.
package dht

import (
	"cmp"
	"fmt"
	"slices"
)

// vnodesPerNode is the number of virtual nodes per member, smoothing the
// key distribution across differently-hashed node IDs.
const vnodesPerNode = 64

// ring is an immutable snapshot of a cluster's membership. Every
// answer the data path needs is precomputed when the snapshot is built:
// the sorted virtual-node hashes and, for each virtual node, the stores
// owning the keys that land on it. A key's owners are then one binary
// search away, with no map, no string and no allocation. Membership
// changes build a new snapshot; nothing mutates a published one.
type ring struct {
	// hashes holds the virtual-node positions in ascending order.
	hashes []uint64
	// owners[i] lists the first `replicas` distinct members clockwise
	// from virtual node i (fewer when the ring has fewer members).
	owners [][]*store
	// members are the stores on the ring, sorted by name.
	members []*store
	// leaving are members that have left the ring and are still handing
	// their records to the new owners (graceful Leave). They own no keys,
	// but removals, eviction, repair and migration still visit them.
	leaving []*store
}

// fnv64 hashes a string with FNV-1a.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// newRing builds the snapshot for the given members, placing each at
// vnodesPerNode positions and precomputing every position's owners.
func newRing(members, leaving []*store, replicas int) *ring {
	members = slices.Clone(members)
	slices.SortFunc(members, func(a, b *store) int { return cmp.Compare(a.name, b.name) })
	type vnode struct {
		hash uint64
		st   *store
	}
	vnodes := make([]vnode, 0, len(members)*vnodesPerNode)
	for _, st := range members {
		for i := 0; i < vnodesPerNode; i++ {
			vnodes = append(vnodes, vnode{hash: fnv64(fmt.Sprintf("%s#%d", st.name, i)), st: st})
		}
	}
	slices.SortFunc(vnodes, func(a, b vnode) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return cmp.Compare(a.st.name, b.st.name)
	})
	r := &ring{
		hashes:  make([]uint64, len(vnodes)),
		owners:  make([][]*store, len(vnodes)),
		members: members,
		leaving: slices.Clone(leaving),
	}
	width := min(replicas, len(members))
	flat := make([]*store, len(vnodes)*width)
	for i, v := range vnodes {
		r.hashes[i] = v.hash
		owners := flat[i*width : i*width : (i+1)*width]
		for j := 0; j < len(vnodes) && len(owners) < width; j++ {
			st := vnodes[(i+j)%len(vnodes)].st
			if !slices.Contains(owners, st) {
				owners = append(owners, st)
			}
		}
		r.owners[i] = owners
	}
	return r
}

// ownersOf returns the stores responsible for the key: the first
// `replicas` distinct members clockwise from the key's position, in ring
// order. The slice is shared with the snapshot and must not be modified.
func (r *ring) ownersOf(key uint64) []*store {
	if len(r.hashes) == 0 {
		return nil
	}
	i, _ := slices.BinarySearch(r.hashes, key)
	if i == len(r.hashes) {
		i = 0
	}
	return r.owners[i]
}

// member returns the store of the named member, on the ring or leaving.
func (r *ring) member(name string) (*store, bool) {
	for _, set := range [][]*store{r.members, r.leaving} {
		for _, st := range set {
			if st.name == name {
				return st, true
			}
		}
	}
	return nil, false
}

// all returns every partition: the members followed by the leaving
// stores. It allocates only when a member is leaving.
func (r *ring) all() []*store {
	if len(r.leaving) == 0 {
		return r.members
	}
	return append(slices.Clone(r.members), r.leaving...)
}
