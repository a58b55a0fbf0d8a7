// Package kv models the distributed key-value store under study: the
// consistent-hash placement of keys onto replica servers (§V-A: keys
// distributed across 100 servers with a replication factor of 3) and the
// simulated replica servers themselves (Np-way parallel service,
// exponentially distributed service times, bimodal performance
// fluctuation).
package kv

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
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
	points  []ringPoint // sorted by position
	groups  [][]int     // group id -> replica server ids
	groupOf []int       // point index -> group id

	// index maps the top bits of a hash to the first point at or past
	// that bucket's start, so a lookup is one table load and a short
	// forward scan instead of a binary search. The table has the largest
	// power-of-two size not above the point count: at most one entry per
	// point, and one to two points per bucket on average.
	index []uint32
	shift uint // 64 − log2(len(index)); a hash's bucket is h >> shift
}

// memberArenaBlock is how many server IDs one replica-group arena block
// holds: group member lists are carved out of shared blocks so a ring
// costs O(groups/block) allocations instead of one per group.
const memberArenaBlock = 4096

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
	r := &Ring{servers: servers, rf: rf}
	r.points = make([]ringPoint, 0, servers*vnodes)
	for s := 0; s < servers; s++ {
		for v := 0; v < vnodes; v++ {
			pos := pointHash(seed, uint64(s), uint64(v))
			r.points = append(r.points, ringPoint{pos: pos, server: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		return r.points[i].server < r.points[j].server
	})
	r.buildIndex()

	// Enumerate the distinct replica groups, one per ring segment. A ring
	// is built per run over servers×vnodes points, and at hyperscale most
	// segments carry a distinct group, so this loop must not allocate per
	// point or per group: the walk reuses one scratch slice, member lists
	// are carved from shared arena blocks, and the dedup key is a
	// comparable fixed-size array (a map insert allocates nothing beyond
	// buckets).
	// Every member list has exactly rf entries, so the zero-padded array
	// key collides exactly when the ordered lists are equal and group IDs
	// are assigned in the same first-encounter order as ever.
	r.groupOf = make([]int, len(r.points))
	scratch := make([]int, 0, rf)
	var arena []int
	carve := func(src []int) []int {
		if len(arena)+len(src) > cap(arena) {
			n := memberArenaBlock
			if len(src) > n {
				n = len(src)
			}
			arena = make([]int, 0, n)
		}
		start := len(arena)
		arena = append(arena, src...)
		return arena[start:len(arena):len(arena)]
	}
	if rf <= 8 && servers <= math.MaxInt32 {
		ids := make(map[[8]int32]int)
		for i := range r.points {
			scratch = r.walk(scratch[:0], i)
			var key [8]int32
			for j, m := range scratch {
				key[j] = int32(m)
			}
			id, ok := ids[key]
			if !ok {
				id = len(r.groups)
				r.groups = append(r.groups, carve(scratch))
				ids[key] = id
			}
			r.groupOf[i] = id
		}
		return r, nil
	}
	// rf > 8 (far beyond the paper's 3): string keys, same enumeration.
	ids := make(map[string]int)
	keyBuf := make([]byte, 0, 16*rf)
	for i := range r.points {
		scratch = r.walk(scratch[:0], i)
		keyBuf = keyBuf[:0]
		for _, m := range scratch {
			keyBuf = strconv.AppendInt(keyBuf, int64(m), 10)
			keyBuf = append(keyBuf, ',')
		}
		id, ok := ids[string(keyBuf)]
		if !ok {
			id = len(r.groups)
			r.groups = append(r.groups, carve(scratch))
			ids[string(keyBuf)] = id
		}
		r.groupOf[i] = id
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

// walk collects rf distinct servers clockwise from point index i into the
// scratch slice. rf is small (3 in the paper), so duplicate detection is a
// linear scan.
func (r *Ring) walk(scratch []int, i int) []int {
	for j := 0; len(scratch) < r.rf; j++ {
		s := r.points[(i+j)%len(r.points)].server
		dup := false
		for _, m := range scratch {
			if m == s {
				dup = true
				break
			}
		}
		if !dup {
			scratch = append(scratch, s)
		}
	}
	return scratch
}

// Servers returns the number of servers on the ring.
func (r *Ring) Servers() int { return r.servers }

// RF returns the replication factor.
func (r *Ring) RF() int { return r.rf }

// Groups returns the number of distinct replica groups.
func (r *Ring) Groups() int { return len(r.groups) }

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
	return r.groupOf[i]
}

// Replicas returns the server IDs of a replica group. The slice must not
// be modified.
func (r *Ring) Replicas(group int) ([]int, error) {
	if group < 0 || group >= len(r.groups) {
		return nil, fmt.Errorf("group %d of %d: %w", group, len(r.groups), ErrInvalidParam)
	}
	return r.groups[group], nil
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
