// Package topo models the hierarchical data-center networks of §II of the
// NetRS paper: multi-tier trees of hosts, ToR switches, aggregation
// switches, and core switches, with redundant switches creating multiple
// up–down paths. It provides the k-ary fat-tree used in the evaluation and
// a simple non-redundant tree for small tests, deterministic ECMP routing,
// and the tier/pod/rack coordinates the placement algorithm needs.
package topo

import (
	"errors"
	"fmt"
	"slices"
)

// Kind distinguishes hosts from switches.
type Kind int

// Node kinds.
const (
	KindHost Kind = iota + 1
	KindSwitch
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindSwitch:
		return "switch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Tier identifiers follow the paper's convention: the tier ID of a node is
// the minimum number of connections between it and any node in the top
// (core) tier. Cores are tier 0, aggregation switches tier 1, ToR switches
// tier 2, and hosts sit below ToRs.
const (
	TierCore = 0
	TierAgg  = 1
	TierToR  = 2
	TierHost = 3
)

// NodeID indexes a node within its topology.
type NodeID int

// InvalidNode is the zero-meaning node reference.
const InvalidNode NodeID = -1

// Node is one element of the topology.
type Node struct {
	ID   NodeID
	Kind Kind
	// Tier is the node's tier ID (TierCore..TierHost).
	Tier int
	// Pod is the pod index, or -1 for core switches.
	Pod int
	// Rack is the global rack index, or -1 for aggregation and core
	// switches.
	Rack int
	// Name is a human-readable label such as "pod2/tor3" or "host517".
	Name string
}

// Errors returned by topology operations.
var (
	ErrInvalidParam = errors.New("topo: invalid parameter")
	ErrNoRoute      = errors.New("topo: no route")
	ErrUnknownNode  = errors.New("topo: unknown node")
)

// Topology is an immutable multi-tier tree network.
type Topology struct {
	nodes []Node
	// adjacency, kept sorted by neighbor ID for deterministic iteration
	// and binary-searched by Linked.
	neighbors [][]NodeID
	up        [][]NodeID // neighbors one tier closer to the core

	hosts []NodeID
	tors  []NodeID
	aggs  []NodeID
	cores []NodeID

	torByRack   []NodeID   // global rack index -> ToR switch
	hostsByRack [][]NodeID // global rack index -> hosts
	aggsByPod   [][]NodeID // pod -> aggregation switches
	torsByPod   [][]NodeID // pod -> ToR switches
	// coreDownAgg[core][pod] is the aggregation switch through which the
	// core reaches the pod, or InvalidNode when disconnected.
	coreDownAgg [][]NodeID

	pods  int
	racks int
	name  string
}

func (t *Topology) addLink(a, b NodeID) {
	t.neighbors[a] = append(t.neighbors[a], b)
	t.neighbors[b] = append(t.neighbors[b], a)
}

// finish sorts adjacency lists and derives the routing tables. It must be
// called once by constructors after all links are added.
func (t *Topology) finish() {
	for _, ids := range t.neighbors {
		slices.Sort(ids)
	}
	t.up = make([][]NodeID, len(t.nodes))
	for i, node := range t.nodes {
		for _, nb := range t.neighbors[i] {
			if t.nodes[nb].Tier < node.Tier {
				t.up[i] = append(t.up[i], nb)
			}
		}
	}
	t.coreDownAgg = make([][]NodeID, len(t.nodes))
	for _, c := range t.cores {
		t.coreDownAgg[c] = make([]NodeID, t.pods)
		for p := range t.coreDownAgg[c] {
			t.coreDownAgg[c][p] = InvalidNode
		}
		for _, nb := range t.neighbors[c] {
			if pod := t.nodes[nb].Pod; pod >= 0 {
				t.coreDownAgg[c][pod] = nb
			}
		}
	}
}

// Name returns a human-readable topology description.
func (t *Topology) Name() string { return t.name }

// Size returns the total number of nodes.
func (t *Topology) Size() int { return len(t.nodes) }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) (Node, error) {
	if int(id) < 0 || int(id) >= len(t.nodes) {
		return Node{}, fmt.Errorf("node %d: %w", id, ErrUnknownNode)
	}
	return t.nodes[id], nil
}

// Hosts returns all host IDs in ascending order. The returned slice must
// not be modified.
func (t *Topology) Hosts() []NodeID { return t.hosts }

// Switches returns all switch IDs grouped core-first.
func (t *Topology) Switches() []NodeID {
	out := make([]NodeID, 0, len(t.cores)+len(t.aggs)+len(t.tors))
	out = append(out, t.cores...)
	out = append(out, t.aggs...)
	out = append(out, t.tors...)
	return out
}

// Cores, Aggs and ToRs return the switch IDs of one tier.
func (t *Topology) Cores() []NodeID { return t.cores }

// Aggs returns the aggregation switches.
func (t *Topology) Aggs() []NodeID { return t.aggs }

// ToRs returns the top-of-rack switches.
func (t *Topology) ToRs() []NodeID { return t.tors }

// Pods returns the number of pods.
func (t *Topology) Pods() int { return t.pods }

// Racks returns the number of racks.
func (t *Topology) Racks() int { return t.racks }

// ToROfRack returns the ToR switch for a global rack index.
func (t *Topology) ToROfRack(rack int) (NodeID, error) {
	if rack < 0 || rack >= t.racks {
		return InvalidNode, fmt.Errorf("rack %d: %w", rack, ErrInvalidParam)
	}
	return t.torByRack[rack], nil
}

// HostsInRack returns the hosts of a global rack index.
func (t *Topology) HostsInRack(rack int) ([]NodeID, error) {
	if rack < 0 || rack >= t.racks {
		return nil, fmt.Errorf("rack %d: %w", rack, ErrInvalidParam)
	}
	return t.hostsByRack[rack], nil
}

// AggsInPod returns the aggregation switches of a pod.
func (t *Topology) AggsInPod(pod int) ([]NodeID, error) {
	if pod < 0 || pod >= t.pods {
		return nil, fmt.Errorf("pod %d: %w", pod, ErrInvalidParam)
	}
	return t.aggsByPod[pod], nil
}

// Linked reports whether two nodes are directly connected.
func (t *Topology) Linked(a, b NodeID) bool {
	if int(a) < 0 || int(a) >= len(t.nodes) {
		return false
	}
	_, ok := slices.BinarySearch(t.neighbors[a], b)
	return ok
}

// Neighbors returns a node's adjacency list (sorted; do not modify).
func (t *Topology) Neighbors(id NodeID) []NodeID { return t.neighbors[id] }

// TrafficTier classifies communication between two hosts per §III-B: Tier-2
// for the same rack, Tier-1 for the same pod, Tier-0 across pods. It is the
// tier of the highest switch a default path traverses.
func (t *Topology) TrafficTier(a, b NodeID) (int, error) {
	na, err := t.Node(a)
	if err != nil {
		return 0, err
	}
	nb, err := t.Node(b)
	if err != nil {
		return 0, err
	}
	if na.Kind != KindHost || nb.Kind != KindHost {
		return 0, fmt.Errorf("traffic tier of non-hosts %v/%v: %w", na.Kind, nb.Kind, ErrInvalidParam)
	}
	switch {
	case na.Rack == nb.Rack:
		return TierToR, nil
	case na.Pod == nb.Pod:
		return TierAgg, nil
	default:
		return TierCore, nil
	}
}

// Contains reports whether switch s lies on some default down-path to node
// n — core switches cover everything, aggregation switches their pod, and
// ToR switches their rack.
func (t *Topology) Contains(s, n NodeID) bool {
	sw := &t.nodes[s]
	nd := &t.nodes[n]
	switch sw.Tier {
	case TierCore:
		return sw.Kind == KindSwitch
	case TierAgg:
		return sw.Pod == nd.Pod
	case TierToR:
		return sw.Rack == nd.Rack
	default:
		return s == n
	}
}
