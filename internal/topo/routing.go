package topo

import "fmt"

// RouteInto appends a shortest up–down path from x to y, inclusive of both
// endpoints, to buf and returns the extended slice. Where the topology
// offers multiple equal-cost paths, the hash picks one deterministically
// (ECMP): the same hash always yields the same path, and distinct hashes
// spread over the candidates. Appending to a caller-owned buffer lets the
// fabric's packet hot path reuse one backing array per pooled packet;
// only the BFS fallback, which no fat-tree flow reaches, allocates.
//
// The analytic cases cover every flow the NetRS schemes generate
// (host↔host, host↔switch, switch↔host, including detours through RSNode
// switches); anything else falls back to a deterministic BFS. On error
// buf comes back unextended.
func (t *Topology) RouteInto(buf []NodeID, x, y NodeID, hash uint64) ([]NodeID, error) {
	for _, id := range [2]NodeID{x, y} {
		if int(id) < 0 || int(id) >= len(t.nodes) {
			return buf, fmt.Errorf("node %d: %w", id, ErrUnknownNode)
		}
	}
	if x == y {
		return append(buf, x), nil
	}
	nx, ny := &t.nodes[x], &t.nodes[y]

	// Down-path: x is a switch covering y.
	if nx.Kind == KindSwitch && t.Contains(x, y) {
		return t.downPath(append(buf, x), x, y, hash)
	}
	// Up-path: y is a switch covering x.
	if ny.Kind == KindSwitch && t.Contains(y, x) {
		mark := len(buf)
		out, err := t.downPath(append(buf, y), y, x, hash)
		if err != nil {
			return buf, err
		}
		reversePath(out[mark:])
		return out, nil
	}

	// Rendezvous routing between two covered endpoints.
	if out, ok, err := t.rendezvous(buf, x, y, hash); err != nil {
		return buf, err
	} else if ok {
		return out, nil
	}
	return t.bfs(buf, x, y)
}

// downPath appends the nodes after s on the down-path from switch s to
// node n, assuming Contains(s, n); buf must already end with s.
func (t *Topology) downPath(buf []NodeID, s, n NodeID, hash uint64) ([]NodeID, error) {
	sw := &t.nodes[s]
	nd := &t.nodes[n]
	switch sw.Tier {
	case TierToR:
		if n == s {
			return buf, nil
		}
		if nd.Kind == KindHost {
			return append(buf, n), nil
		}
	case TierAgg:
		if n == s {
			return buf, nil
		}
		if nd.Rack < 0 {
			break // a sibling agg; not a pure down-path
		}
		tor := t.torByRack[nd.Rack]
		if n == tor {
			return append(buf, tor), nil
		}
		if nd.Kind == KindHost {
			return append(buf, tor, n), nil
		}
	case TierCore:
		if n == s {
			return buf, nil
		}
		if nd.Pod < 0 {
			break // another core; not a down-path
		}
		agg := t.coreDownAgg[s][nd.Pod]
		if agg == InvalidNode {
			break
		}
		if n == agg {
			return append(buf, agg), nil
		}
		if nd.Rack < 0 {
			break // a different agg of the pod; needs a ToR bounce
		}
		return t.downPath(append(buf, agg), agg, n, hash)
	}
	// The BFS path restarts at s, which buf already ends with.
	out, err := t.bfs(buf[:len(buf)-1], s, n)
	if err != nil {
		return buf, err
	}
	return out, nil
}

// rendezvous appends up-path(x→m) + down-path(m→y) for a meeting switch m
// chosen by ECMP. It reports ok=false when the analytic cases do not apply.
func (t *Topology) rendezvous(buf []NodeID, x, y NodeID, hash uint64) ([]NodeID, bool, error) {
	nx, ny := &t.nodes[x], &t.nodes[y]
	// Both endpoints must hang off racks (hosts or ToRs) or be aggs for
	// the analytic approach; cores were handled by Contains above.
	if nx.Tier == TierCore || ny.Tier == TierCore {
		return buf, false, nil
	}

	// Same rack: meet at the ToR.
	if nx.Rack >= 0 && nx.Rack == ny.Rack {
		return t.join(buf, x, t.torByRack[nx.Rack], y, hash)
	}
	// Same pod: meet at an aggregation switch of the pod. From a rack
	// every agg of the pod is reachable; from an agg only itself (already
	// handled by Contains).
	if nx.Pod >= 0 && nx.Pod == ny.Pod && nx.Rack >= 0 && ny.Rack >= 0 {
		aggs := t.aggsByPod[nx.Pod]
		m := aggs[int(hash%uint64(len(aggs)))]
		return t.join(buf, x, m, y, hash)
	}
	// Cross-pod (or one endpoint is an agg of a different pod): meet at a
	// core. Candidates are restricted by agg endpoints, which reach only
	// their core group.
	candidates := t.meetCores(x, y)
	if len(candidates) == 0 {
		return buf, false, nil
	}
	m := candidates[int(hash%uint64(len(candidates)))]
	return t.join(buf, x, m, y, hash)
}

// meetCores returns the rendezvous core candidates for x and y: the
// intersection of their pure-up-reachable cores. When one side can reach
// every core (hosts and ToRs), the intersection is the other side's
// candidate set unchanged — an agg's up-neighbors are all cores — so the
// packet hot path skips the intersection allocation entirely.
func (t *Topology) meetCores(x, y NodeID) []NodeID {
	ca, cb := t.coreCandidates(x), t.coreCandidates(y)
	switch {
	case sameIDs(ca, t.cores):
		return cb
	case sameIDs(cb, t.cores):
		return ca
	default:
		return intersectSorted(ca, cb)
	}
}

// sameIDs reports whether a and b are the same slice (identical header).
func sameIDs(a, b []NodeID) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// coreCandidates returns the cores reachable on a pure up-path from n.
func (t *Topology) coreCandidates(n NodeID) []NodeID {
	nd := &t.nodes[n]
	switch nd.Tier {
	case TierAgg:
		return t.up[n]
	case TierToR, TierHost:
		return t.cores
	default:
		return nil
	}
}

// join appends the up-path x→m followed by the down-path m→y.
func (t *Topology) join(buf []NodeID, x, m, y NodeID, hash uint64) ([]NodeID, bool, error) {
	out, err := t.upPath(buf, x, m)
	if err != nil {
		return buf, false, err
	}
	out, err = t.downPath(out, m, y, hash)
	if err != nil {
		return buf, false, err
	}
	return out, true, nil
}

// upPath appends the climb from node n to an ancestor switch m with
// Contains(m, n), both inclusive. Fat-trees make the climb unique once the
// target is fixed: a host has one ToR, a rack reaches a given core through
// exactly one agg (the pod member of the core's group).
func (t *Topology) upPath(buf []NodeID, n, m NodeID) ([]NodeID, error) {
	if n == m {
		return append(buf, n), nil
	}
	nd := &t.nodes[n]
	mw := &t.nodes[m]
	switch mw.Tier {
	case TierToR:
		if nd.Kind == KindHost && t.torByRack[nd.Rack] == m {
			return append(buf, n, m), nil
		}
	case TierAgg:
		switch nd.Tier {
		case TierHost:
			tor := t.torByRack[nd.Rack]
			if t.Linked(tor, m) {
				return append(buf, n, tor, m), nil
			}
		case TierToR:
			if t.Linked(n, m) {
				return append(buf, n, m), nil
			}
		}
	case TierCore:
		switch nd.Tier {
		case TierAgg:
			if t.Linked(n, m) {
				return append(buf, n, m), nil
			}
		case TierToR, TierHost:
			if nd.Pod >= 0 {
				agg := t.coreDownAgg[m][nd.Pod]
				if agg != InvalidNode {
					out, err := t.upPath(buf, n, agg)
					if err == nil {
						return append(out, m), nil
					}
				}
			}
		}
	}
	return t.bfs(buf, n, m)
}

// bfs appends a shortest path x..y with deterministic tie-breaking (lowest
// neighbor ID first). It backs the rare flows the analytic router does not
// cover.
func (t *Topology) bfs(buf []NodeID, x, y NodeID) ([]NodeID, error) {
	prev := make([]NodeID, len(t.nodes))
	for i := range prev {
		prev[i] = InvalidNode
	}
	prev[x] = x
	queue := []NodeID{x}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == y {
			mark := len(buf)
			for n := y; ; n = prev[n] {
				buf = append(buf, n)
				if n == x {
					break
				}
			}
			reversePath(buf[mark:])
			return buf, nil
		}
		for _, nb := range t.neighbors[cur] {
			if prev[nb] == InvalidNode {
				prev[nb] = cur
				queue = append(queue, nb)
			}
		}
	}
	return buf, fmt.Errorf("from %d to %d: %w", x, y, ErrNoRoute)
}

// Forwards counts the switch traversals on a path — the paper's unit when
// budgeting extra hops (§III-B: a same-rack request is "forwarded once").
func (t *Topology) Forwards(path []NodeID) int {
	n := 0
	for _, id := range path {
		if t.nodes[id].Kind == KindSwitch {
			n++
		}
	}
	return n
}

// Links returns the number of link traversals on a path.
func Links(path []NodeID) int {
	if len(path) == 0 {
		return 0
	}
	return len(path) - 1
}

func reversePath(p []NodeID) {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
}

// intersectSorted intersects two ascending NodeID slices.
func intersectSorted(a, b []NodeID) []NodeID {
	out := make([]NodeID, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
