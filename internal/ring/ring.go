// Package ring implements the consistent-hash ring that shards report
// keys across an opgated fleet. Membership is static — every node is
// started with the same -peers list and computes the same ring — so
// ownership is a pure function of (members, key): no coordination, no
// gossip, no shared state. Each member is expanded into a fixed number
// of virtual points (SHA-256 of "member#i") on a uint64 circle; a key
// hashes onto the circle and is owned by the first point clockwise.
// Virtual points smooth the load split (with one point per member, two
// nodes can end up with a 90/10 split; with 64 each the imbalance is a
// few percent) and keep remapping minimal when the member list changes:
// only keys adjacent to the departed member's points move.
//
// The ring decides *placement*, never availability: callers that find
// the owner unreachable fall back to computing locally, which is always
// correct because keys are content addresses — any node can recompute
// any object.
package ring

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// replicas is the virtual-point count per member.
const replicas = 64

// Ring is an immutable consistent-hash ring. Safe for concurrent use.
type Ring struct {
	members []string
	points  []point
}

type point struct {
	hash   uint64
	member int // index into members
}

// New builds a ring over members with replicas virtual points each.
// Members must be non-empty and unique (duplicate entries would silently
// double a node's share).
func New(members []string) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("ring: no members")
	}
	seen := make(map[string]bool, len(members))
	r := &Ring{
		members: append([]string(nil), members...),
		points:  make([]point, 0, len(members)*replicas),
	}
	for mi, m := range members {
		if m == "" {
			return nil, fmt.Errorf("ring: empty member")
		}
		if seen[m] {
			return nil, fmt.Errorf("ring: duplicate member %q", m)
		}
		seen[m] = true
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, point{
				hash:   pointHash(fmt.Sprintf("%s#%d", m, i)),
				member: mi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on member index so ordering (and thus ownership) is
		// deterministic even in the astronomically unlikely collision.
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// pointHash maps a label onto the uint64 circle.
func pointHash(label string) uint64 {
	sum := sha256.Sum256([]byte(label))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the member owning key: the member of the first virtual
// point at or clockwise of the key's hash, wrapping at the top.
func (r *Ring) Owner(key string) string {
	h := pointHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.members[r.points[i].member]
}

// Members returns the ring's member list in construction order.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Contains reports whether m is a ring member.
func (r *Ring) Contains(m string) bool {
	for _, have := range r.members {
		if have == m {
			return true
		}
	}
	return false
}
