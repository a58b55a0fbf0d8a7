package fabric

import (
	"fmt"

	"netrs/internal/sim"
	"netrs/internal/topo"
)

// Invalidation fan-out as one multicast along a route trie.
//
// A committed write must reach every enabled ToR cache. The trie is the
// prefix merge of the exact routes one unicast packet per ToR would take
// (RouteInto from the server host, hashed by the write's request ID), so
// every trie node is one (switch, arrival instant) those packets share and
// the fabric schedules one event per trie edge instead of one per packet
// per link. Each edge is a link like any other: LinkLatency plus any fault
// extra, looked up when the edge leaves its node, and the exchange when it
// crosses partitions. DESIGN.md §14 argues why the event order, and so
// every golden file, is the unicast fan-out's.
//
// A write's trie is cut at its partition-crossing edges into segments, one
// per connected piece inside a partition. The sending partition fills every
// segment from its own free list before the first edge leaves; afterwards
// only the partition running a segment's nodes touches it, and the one
// that runs its last node returns it to its own free list, the way pooled
// packets move between pools. No segment is shared by two workers at once,
// so the fan-out needs no atomics.

// maxFreeSegs bounds a partition's segment free list. Segments flow from
// the sending pod partitions toward the core partition, which never sends
// a fan-out; past the bound a released segment is left to the garbage
// collector instead of piling up there. A single partition's list stays
// far below it.
const maxFreeSegs = 256

// mcastNode is one trie node: the source host at the root, a switch below
// it. Its child edges are seg.kids[e0:e1].
type mcastNode struct {
	id     topo.NodeID
	target bool // a ToR whose cache drops the key on arrival
	e0, e1 int32
	seg    *mcastSeg
}

// mcastSeg is the piece of one write's trie inside one partition.
type mcastSeg struct {
	key  uint64
	part int // the partition that runs every node of the segment
	left int // nodes not yet reached; the last one frees the segment
	// nodes is the segment's trie nodes; kids holds every node's child
	// edges, which may point into other segments.
	nodes []mcastNode
	kids  []*mcastNode
}

// mcastBuild is one partition's reusable scratch for building tries; segs
// holds the segments of the last trie it built.
type mcastBuild struct {
	route []topo.NodeID
	trie  []trieNode
	segs  []*mcastSeg
}

// trieNode is a scratch trie node. Children form a singly linked list in
// insertion order; -1 ends a list.
type trieNode struct {
	id                topo.NodeID
	parent            int32
	first, next, last int32 // first child, next sibling, last child
	kids              int32
	target            bool
	// part, seg and slot place the node in its partition and segment once
	// the trie is cut.
	part      int
	seg, slot int32
}

// SendInvalidations multicasts a committed write's cache invalidation from
// a server host to the ToR switches tors: each target's cache drops key,
// and each counts as one delivered packet. The copies follow the routes
// one unicast packet per target would take, hashed by reqID, and cost one
// event per trie edge. It must be called from an event executing in
// from's partition. An empty target list sends nothing.
func (n *Network) SendInvalidations(from topo.NodeID, reqID, key uint64, tors []topo.NodeID) error {
	if len(tors) == 0 {
		return nil
	}
	if from < 0 || int(from) >= len(n.operators) {
		return fmt.Errorf("invalidate from %d: %w", from, ErrInvalidParam)
	}
	part := n.PartitionOf(from)
	b := &n.builds[part]
	b.trie = append(b.trie[:0], trieNode{id: from, parent: -1, first: -1, next: -1, last: -1})
	hash := sim.Mix64(reqID)
	for _, tor := range tors {
		if tor < 0 || int(tor) >= len(n.operators) || n.operators[tor] == nil {
			return fmt.Errorf("invalidate at %d: %w", tor, ErrNoOperator)
		}
		route, err := n.topo.RouteInto(b.route[:0], from, tor, hash)
		b.route = route
		if err != nil {
			return fmt.Errorf("invalidate: %w", err)
		}
		b.merge(route)
	}
	n.cut(b, part, key)
	n.reach(&b.segs[0].nodes[0])
	return nil
}

// merge adds one route to the trie. Targets come in topology order, so a
// route usually shares its prefix with the previous one; each step checks
// the most recently added child before scanning the rest.
func (b *mcastBuild) merge(route []topo.NodeID) {
	cur := int32(0)
	for _, id := range route[1:] {
		cur = b.child(cur, id)
	}
	b.trie[cur].target = true
}

// child returns the parent's child for node id, adding it if absent.
func (b *mcastBuild) child(parent int32, id topo.NodeID) int32 {
	if k := b.trie[parent].last; k >= 0 && b.trie[k].id == id {
		return k
	}
	for k := b.trie[parent].first; k >= 0; k = b.trie[k].next {
		if b.trie[k].id == id {
			return k
		}
	}
	k := int32(len(b.trie))
	b.trie = append(b.trie, trieNode{id: id, parent: parent, first: -1, next: -1, last: -1})
	p := &b.trie[parent]
	if p.last >= 0 {
		b.trie[p.last].next = k
	} else {
		p.first = k
	}
	p.last = k
	p.kids++
	return k
}

// cut splits the scratch trie into segments drawn from partition src's
// free list and links every node to its children. Parents precede their
// children in the scratch trie, so one pass places every node and sizes
// every segment before the second takes node addresses.
func (n *Network) cut(b *mcastBuild, src int, key uint64) {
	b.segs = b.segs[:0]
	for i := range b.trie {
		t := &b.trie[i]
		t.part = n.PartitionOf(t.id)
		if i == 0 || t.part != b.trie[t.parent].part {
			t.seg = int32(len(b.segs))
			b.segs = append(b.segs, n.newSeg(src, t.part, key))
		} else {
			t.seg = b.trie[t.parent].seg
		}
		seg := b.segs[t.seg]
		t.slot = int32(len(seg.nodes))
		e0 := int32(len(seg.kids))
		seg.nodes = append(seg.nodes, mcastNode{id: t.id, target: t.target, e0: e0, e1: e0 + t.kids, seg: seg})
		for range t.kids {
			seg.kids = append(seg.kids, nil)
		}
	}
	for i := range b.trie {
		t := &b.trie[i]
		seg := b.segs[t.seg]
		e := seg.nodes[t.slot].e0
		for k := t.first; k >= 0; k = b.trie[k].next {
			kid := &b.trie[k]
			seg.kids[e] = &b.segs[kid.seg].nodes[kid.slot]
			e++
		}
	}
	for _, seg := range b.segs {
		seg.left = len(seg.nodes)
	}
}

// newSeg returns an empty segment for partition part, recycled from
// partition src's free list when one is available.
func (n *Network) newSeg(src, part int, key uint64) *mcastSeg {
	var seg *mcastSeg
	if free := n.segFree[src]; len(free) > 0 {
		seg = free[len(free)-1]
		n.segFree[src] = free[:len(free)-1]
	} else {
		seg = &mcastSeg{}
	}
	seg.key, seg.part = key, part
	seg.nodes, seg.kids = seg.nodes[:0], seg.kids[:0]
	return seg
}

// reach runs a trie node at its switch: a target ToR drops the key and
// counts a delivery, then every child edge leaves over its link. The
// segment's last node returns it to this partition's free list.
func (n *Network) reach(m *mcastNode) {
	seg := m.seg
	if m.target {
		if op := n.operators[m.id]; op.cache != nil {
			op.cache.Invalidate(seg.key)
		}
		n.counters[seg.part].delivered++
	}
	for _, kid := range seg.kids[m.e0:m.e1] {
		n.link(m.id, kid.id, n.reachFn, kid)
	}
	if seg.left--; seg.left == 0 && len(n.segFree[seg.part]) < maxFreeSegs {
		n.segFree[seg.part] = append(n.segFree[seg.part], seg)
	}
}
