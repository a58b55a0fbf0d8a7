package topo

import "fmt"

// NewFatTree builds a k-ary fat-tree (Al-Fares et al., SIGCOMM'08), the
// topology of the paper's evaluation (k = 16, 1024 hosts):
//
//   - k pods;
//   - each pod has k/2 ToR (edge) switches and k/2 aggregation switches,
//     fully bipartitely connected;
//   - each ToR hosts k/2 end-hosts;
//   - (k/2)² core switches; the j-th aggregation switch of every pod
//     connects to core group j (cores j·k/2 … (j+1)·k/2 − 1).
//
// k must be even and at least 2.
func NewFatTree(k int) (*Topology, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("fat-tree arity %d (need even ≥ 2): %w", k, ErrInvalidParam)
	}
	half := k / 2
	// Preallocate the node tables from the closed-form counts: (k/2)²
	// cores, k·k/2 aggs and ToRs, and k·(k/2)² hosts. At k=32 (8192 hosts,
	// 9472 nodes) incremental growth would otherwise dominate construction.
	hostsTotal := k * half * half
	t := &Topology{
		pods:  k,
		racks: k * half,
		name:  fmt.Sprintf("fat-tree(k=%d)", k),
	}
	t.nodes = make([]Node, 0, half*half+k*2*half+hostsTotal)
	t.cores = make([]NodeID, 0, half*half)
	t.aggs = make([]NodeID, 0, k*half)
	t.tors = make([]NodeID, 0, k*half)
	t.hosts = make([]NodeID, 0, hostsTotal)

	addNode := func(n Node) NodeID {
		n.ID = NodeID(len(t.nodes))
		t.nodes = append(t.nodes, n)
		return n.ID
	}

	// Core switches first.
	for c := 0; c < half*half; c++ {
		id := addNode(Node{
			Kind: KindSwitch, Tier: TierCore, Pod: -1, Rack: -1,
			Name: fmt.Sprintf("core%d", c),
		})
		t.cores = append(t.cores, id)
	}

	t.aggsByPod = make([][]NodeID, k)
	t.torsByPod = make([][]NodeID, k)
	t.torByRack = make([]NodeID, 0, t.racks)
	t.hostsByRack = make([][]NodeID, 0, t.racks)

	for pod := 0; pod < k; pod++ {
		// Aggregation switches of the pod.
		for j := 0; j < half; j++ {
			id := addNode(Node{
				Kind: KindSwitch, Tier: TierAgg, Pod: pod, Rack: -1,
				Name: fmt.Sprintf("pod%d/agg%d", pod, j),
			})
			t.aggs = append(t.aggs, id)
			t.aggsByPod[pod] = append(t.aggsByPod[pod], id)
		}
		// ToR switches and their hosts.
		for j := 0; j < half; j++ {
			rack := pod*half + j
			tor := addNode(Node{
				Kind: KindSwitch, Tier: TierToR, Pod: pod, Rack: rack,
				Name: fmt.Sprintf("pod%d/tor%d", pod, j),
			})
			t.tors = append(t.tors, tor)
			t.torsByPod[pod] = append(t.torsByPod[pod], tor)
			t.torByRack = append(t.torByRack, tor)
			rackHosts := make([]NodeID, 0, half)
			for h := 0; h < half; h++ {
				host := addNode(Node{
					Kind: KindHost, Tier: TierHost, Pod: pod, Rack: rack,
					Name: fmt.Sprintf("host%d", rack*half+h),
				})
				t.hosts = append(t.hosts, host)
				rackHosts = append(rackHosts, host)
			}
			t.hostsByRack = append(t.hostsByRack, rackHosts)
		}
	}

	t.neighbors = make([][]NodeID, len(t.nodes))

	// Host–ToR links.
	for rack, hosts := range t.hostsByRack {
		for _, h := range hosts {
			t.addLink(t.torByRack[rack], h)
		}
	}
	// ToR–aggregation links: full bipartite within a pod.
	for pod := 0; pod < k; pod++ {
		for _, tor := range t.torsByPod[pod] {
			for _, agg := range t.aggsByPod[pod] {
				t.addLink(tor, agg)
			}
		}
	}
	// Aggregation–core links: agg j connects to core group j.
	for pod := 0; pod < k; pod++ {
		for j, agg := range t.aggsByPod[pod] {
			for c := 0; c < half; c++ {
				t.addLink(agg, t.cores[j*half+c])
			}
		}
	}

	t.finish()
	return t, nil
}

// NewSimpleTree builds a non-redundant tree: one core switch, aggs
// aggregation switches (one pod each), torsPerAgg ToR switches per pod, and
// hostsPerToR hosts per rack. Each switch has exactly one uplink, so every
// pair of nodes has a unique path. It exercises the n-tier generality of
// the placement algorithm and keeps unit tests legible.
func NewSimpleTree(aggs, torsPerAgg, hostsPerToR int) (*Topology, error) {
	if aggs < 1 || torsPerAgg < 1 || hostsPerToR < 1 {
		return nil, fmt.Errorf("simple tree %d/%d/%d: %w", aggs, torsPerAgg, hostsPerToR, ErrInvalidParam)
	}
	t := &Topology{
		pods:  aggs,
		racks: aggs * torsPerAgg,
		name:  fmt.Sprintf("simple-tree(%d,%d,%d)", aggs, torsPerAgg, hostsPerToR),
	}
	addNode := func(n Node) NodeID {
		n.ID = NodeID(len(t.nodes))
		t.nodes = append(t.nodes, n)
		return n.ID
	}

	core := addNode(Node{Kind: KindSwitch, Tier: TierCore, Pod: -1, Rack: -1, Name: "core0"})
	t.cores = append(t.cores, core)

	t.aggsByPod = make([][]NodeID, aggs)
	t.torsByPod = make([][]NodeID, aggs)
	for pod := 0; pod < aggs; pod++ {
		agg := addNode(Node{
			Kind: KindSwitch, Tier: TierAgg, Pod: pod, Rack: -1,
			Name: fmt.Sprintf("pod%d/agg0", pod),
		})
		t.aggs = append(t.aggs, agg)
		t.aggsByPod[pod] = []NodeID{agg}
		for j := 0; j < torsPerAgg; j++ {
			rack := pod*torsPerAgg + j
			tor := addNode(Node{
				Kind: KindSwitch, Tier: TierToR, Pod: pod, Rack: rack,
				Name: fmt.Sprintf("pod%d/tor%d", pod, j),
			})
			t.tors = append(t.tors, tor)
			t.torsByPod[pod] = append(t.torsByPod[pod], tor)
			t.torByRack = append(t.torByRack, tor)
			rackHosts := make([]NodeID, 0, hostsPerToR)
			for h := 0; h < hostsPerToR; h++ {
				host := addNode(Node{
					Kind: KindHost, Tier: TierHost, Pod: pod, Rack: rack,
					Name: fmt.Sprintf("host%d", rack*hostsPerToR+h),
				})
				t.hosts = append(t.hosts, host)
				rackHosts = append(rackHosts, host)
			}
			t.hostsByRack = append(t.hostsByRack, rackHosts)
		}
	}

	t.neighbors = make([][]NodeID, len(t.nodes))
	for rack, hosts := range t.hostsByRack {
		for _, h := range hosts {
			t.addLink(t.torByRack[rack], h)
		}
	}
	for pod := 0; pod < aggs; pod++ {
		for _, tor := range t.torsByPod[pod] {
			t.addLink(t.aggsByPod[pod][0], tor)
		}
		t.addLink(core, t.aggsByPod[pod][0])
	}

	t.finish()
	return t, nil
}
