// Package cluster holds the small, dependency-free pieces of the
// horizontal serving tier: a consistent hash ring that maps receiver
// sessions onto gpsserve nodes, and a health monitor that watches node
// /healthz endpoints and drives failover decisions.
package cluster

import (
	"hash/fnv"
	"sort"
	"sync"

	"gpsdl/internal/rng"
)

// Ring is a consistent hash ring with virtual nodes. Sessions hash to
// points on a 64-bit circle; each node owns the arcs leading to its
// virtual points, so removing a node re-homes only that node's
// sessions and adding one steals ~1/n of each arc. Safe for concurrent
// use.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []ringPoint // sorted by hash
	nodes    map[string]struct{}
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring with the given virtual-node count per node
// (≤ 0 means 64).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = 64
	}
	return &Ring{replicas: replicas, nodes: make(map[string]struct{})}
}

func nodePoint(node string, replica int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	return rng.Mix64(h.Sum64() + uint64(replica)*0x9E3779B97F4A7C15)
}

// SessionKey maps a session id onto the circle.
func SessionKey(id int) uint64 { return rng.Mix64(uint64(id) + 1) }

// Add inserts node (idempotent).
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash: nodePoint(node, i), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes node (idempotent).
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the node owning key — the first virtual point at or
// after it on the circle. ok is false when the ring is empty.
func (r *Ring) Owner(key uint64) (node string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node, true
}

// OwnerSession returns the node owning session id.
func (r *Ring) OwnerSession(id int) (string, bool) { return r.Owner(SessionKey(id)) }
