package topo

import (
	"bufio"
	"fmt"
	"io"
)

// WriteDOT emits the topology as a Graphviz digraph for visualization:
// one subgraph per pod, tier-colored nodes, and every physical link.
// Render with `dot -Tsvg` or any Graphviz viewer.
func (t *Topology) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	write := func(format string, args ...any) {
		fmt.Fprintf(bw, format, args...)
	}
	write("graph %q {\n", t.name)
	write("  rankdir=TB;\n  node [style=filled, fontname=\"monospace\"];\n")

	colors := map[int]string{
		TierCore: "lightcoral",
		TierAgg:  "lightgoldenrod",
		TierToR:  "lightblue",
		TierHost: "lightgray",
	}
	shape := func(n Node) string {
		if n.Kind == KindHost {
			return "ellipse"
		}
		return "box"
	}

	// Core switches at the top, outside any pod.
	write("  { rank=same;")
	for _, c := range t.cores {
		write(" n%d;", c)
	}
	write(" }\n")
	for _, c := range t.cores {
		n := t.nodes[c]
		write("  n%d [label=%q, fillcolor=%s, shape=%s];\n", c, n.Name, colors[n.Tier], shape(n))
	}

	// Pods as clusters.
	for pod := 0; pod < t.pods; pod++ {
		write("  subgraph cluster_pod%d {\n    label=\"pod %d\";\n", pod, pod)
		for _, id := range t.aggsByPod[pod] {
			n := t.nodes[id]
			write("    n%d [label=%q, fillcolor=%s, shape=%s];\n", id, n.Name, colors[n.Tier], shape(n))
		}
		for _, tor := range t.torsByPod[pod] {
			n := t.nodes[tor]
			write("    n%d [label=%q, fillcolor=%s, shape=%s];\n", tor, n.Name, colors[n.Tier], shape(n))
			for _, h := range t.hostsByRack[n.Rack] {
				hn := t.nodes[h]
				write("    n%d [label=%q, fillcolor=%s, shape=%s];\n", h, hn.Name, colors[hn.Tier], shape(hn))
			}
		}
		write("  }\n")
	}

	// Links, deduplicated (a < b), in (a, b) order: the adjacency lists
	// are sorted, so the DOT output is byte-identical across runs.
	for a, nbs := range t.neighbors {
		for _, b := range nbs {
			if NodeID(a) < b {
				write("  n%d -- n%d;\n", a, b)
			}
		}
	}
	write("}\n")
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("topo: write dot: %w", err)
	}
	return nil
}
