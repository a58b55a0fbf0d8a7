// Package kv models the distributed key-value store under study: the
// consistent-hash placement of keys onto replica servers (§V-A: keys
// distributed across 100 servers with a replication factor of 3) and the
// simulated replica servers themselves (Np-way parallel service,
// exponentially distributed service times, bimodal performance
// fluctuation).
package kv

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"netrs/internal/sim"
)

// ErrInvalidParam reports a construction parameter outside its domain.
var ErrInvalidParam = errors.New("kv: invalid parameter")

// Ring is a consistent-hash ring mapping keys to replica groups. Each
// server owns VirtualNodes positions; a key belongs to the group of its
// successor position's server plus the next RF−1 distinct servers
// clockwise. Groups are pre-enumerated so every key maps to a compact
// Replica Group ID, the 3-byte RGID carried in NetRS request packets
// (§IV-A): the NetRS selector looks replica candidates up by RGID in its
// local database rather than parsing a variable replica list.
type Ring struct {
	servers int
	rf      int
	points  []ringPoint // sorted by (position, server)
	groupOf []uint32    // point index -> group id
	members []int       // group g's replicas are members[g*rf : (g+1)*rf]

	// index maps the top bits of a hash to the first point at or past
	// that bucket's start, so a lookup is one table load and a short
	// forward scan instead of a binary search. The table has the largest
	// power-of-two size not above the point count: at most one entry per
	// point, and one to two points per bucket on average.
	index []uint32
	shift uint // 64 − log2(len(index)); a hash's bucket is h >> shift
}

type ringPoint struct {
	pos    uint64
	server int
}

// NewRing places servers on a ring with the given replication factor and
// virtual-node count per server. servers must be ≥ rf ≥ 1 and vnodes ≥ 1,
// with at most math.MaxUint32 points in all.
func NewRing(servers, rf, vnodes int, seed uint64) (*Ring, error) {
	if servers < 1 || rf < 1 || rf > servers || vnodes < 1 || servers > math.MaxUint32/vnodes {
		return nil, fmt.Errorf("ring servers=%d rf=%d vnodes=%d: %w", servers, rf, vnodes, ErrInvalidParam)
	}
	n := servers * vnodes
	r := &Ring{servers: servers, rf: rf, points: make([]ringPoint, n)}
	for s := 0; s < servers; s++ {
		for v := 0; v < vnodes; v++ {
			r.points[s*vnodes+v] = ringPoint{pos: pointHash(seed, uint64(s), uint64(v)), server: s}
		}
	}
	slices.SortFunc(r.points, func(a, b ringPoint) int {
		return cmp.Or(cmp.Compare(a.pos, b.pos), cmp.Compare(a.server, b.server))
	})
	r.buildIndex()

	// Enumerate the distinct replica groups, one per ring segment, in
	// first-encounter order along the ring. Each point's walk is appended
	// to members as a tentative new group and dropped again when an
	// open-addressing table (group ID + 1 per slot, 0 for empty, at least
	// twice as many slots as points) already holds an equal member list.
	// There are at most n groups, so members never outgrows its n×rf
	// capacity and the ring costs the same few allocations at any size.
	r.groupOf = make([]uint32, n)
	r.members = make([]int, 0, n*rf)
	table := make([]uint32, 1<<bits.Len(uint(2*n-1)))
	mask := uint64(len(table) - 1)
	for i := range r.points {
		r.members = r.walk(r.members, i)
		walked := r.members[len(r.members)-rf:]
		h := uint64(0)
		for _, m := range walked {
			h = sim.Mix64(h ^ uint64(m))
		}
		slot := h & mask
		for table[slot] != 0 {
			g := int(table[slot]-1) * rf
			if slices.Equal(r.members[g:g+rf], walked) {
				break
			}
			slot = (slot + 1) & mask
		}
		if table[slot] == 0 {
			table[slot] = uint32(len(r.members) / rf) // the new group's ID + 1
		} else {
			r.members = r.members[:len(r.members)-rf]
		}
		r.groupOf[i] = table[slot] - 1
	}
	return r, nil
}

// buildIndex fills the bucket table over the sorted points.
func (r *Ring) buildIndex() {
	logSize := bits.Len(uint(len(r.points))) - 1
	r.shift = uint(64 - logSize)
	r.index = make([]uint32, 1<<logSize)
	i := 0
	for b := range r.index {
		// A shift of 64 yields 0: a one-bucket table holds every point.
		for i < len(r.points) && r.points[i].pos>>r.shift < uint64(b) {
			i++
		}
		r.index[b] = uint32(i)
	}
}

// walk appends rf distinct servers clockwise from point index i to dst.
// rf is small (3 in the paper), so duplicate detection is a linear scan.
func (r *Ring) walk(dst []int, i int) []int {
	start := len(dst)
	for j := 0; len(dst)-start < r.rf; j++ {
		if s := r.points[(i+j)%len(r.points)].server; !slices.Contains(dst[start:], s) {
			dst = append(dst, s)
		}
	}
	return dst
}

// Servers returns the number of servers on the ring.
func (r *Ring) Servers() int { return r.servers }

// RF returns the replication factor.
func (r *Ring) RF() int { return r.rf }

// Groups returns the number of distinct replica groups.
func (r *Ring) Groups() int { return len(r.members) / r.rf }

// GroupOfKey returns the replica group ID owning a key.
func (r *Ring) GroupOfKey(key uint64) int {
	return r.groupOfHash(pointHash(0x243f6a8885a308d3, key, 0))
}

// groupOfHash returns the group of the first point at or clockwise past
// ring position h, wrapping past the last point to the first. Every point
// before index[bucket] lies in an earlier bucket, below h, so the scan
// from there finds the same point as a binary search over all of them.
func (r *Ring) groupOfHash(h uint64) int {
	i := int(r.index[h>>r.shift])
	for i < len(r.points) && r.points[i].pos < h {
		i++
	}
	if i == len(r.points) {
		i = 0
	}
	return int(r.groupOf[i])
}

// Replicas returns the server IDs of a replica group. The slice must not
// be modified.
func (r *Ring) Replicas(group int) ([]int, error) {
	if group < 0 || group >= r.Groups() {
		return nil, fmt.Errorf("group %d of %d: %w", group, r.Groups(), ErrInvalidParam)
	}
	end := (group + 1) * r.rf
	return r.members[group*r.rf : end : end], nil
}

// ReplicasOfKey is the composition of GroupOfKey and Replicas.
func (r *Ring) ReplicasOfKey(key uint64) []int {
	replicas, _ := r.Replicas(r.GroupOfKey(key))
	return replicas
}

// pointHash mixes (seed, a, b) into a 64-bit ring position
// (SplitMix64-style finalization).
func pointHash(seed, a, b uint64) uint64 {
	x := seed ^ (a * 0x9e3779b97f4a7c15) ^ (b+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}
