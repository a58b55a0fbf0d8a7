package topo

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

func TestPartitionMap(t *testing.T) {
	ft, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ft.PodPartitions(), 5; got != want {
		t.Fatalf("PodPartitions() = %d, want %d", got, want)
	}
	if got, want := ft.ControlPartition(), 4; got != want {
		t.Fatalf("ControlPartition() = %d, want %d", got, want)
	}
	for id := NodeID(0); int(id) < ft.Size(); id++ {
		n, _ := ft.Node(id)
		p := ft.PartitionOf(id)
		if n.Tier == TierCore {
			if p != ft.ControlPartition() {
				t.Errorf("%s: partition %d, want control %d", n.Name, p, ft.ControlPartition())
			}
			continue
		}
		if p != n.Pod {
			t.Errorf("%s: partition %d, want pod %d", n.Name, p, n.Pod)
		}
	}
}

// TestPartitionLookahead pins the conservative-lookahead precondition: the
// only links whose endpoints live in different partitions are
// aggregation↔core links. Every other hop is partition-local, so one
// inter-switch link latency bounds all cross-partition influence.
func TestPartitionLookahead(t *testing.T) {
	for _, k := range []int{4, 6, 8} {
		ft, err := NewFatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		for id := NodeID(0); int(id) < ft.Size(); id++ {
			for _, nb := range ft.Neighbors(id) {
				if ft.PartitionOf(id) == ft.PartitionOf(nb) {
					continue
				}
				a, _ := ft.Node(id)
				b, _ := ft.Node(nb)
				lo, hi := a.Tier, b.Tier
				if lo > hi {
					lo, hi = hi, lo
				}
				if lo != TierCore || hi != TierAgg {
					t.Fatalf("k=%d: cross-partition link %s–%s is not agg↔core", k, a.Name, b.Name)
				}
			}
		}
	}
}

// goldenRoutePaths is TestRoutePathsDigest's pinned value. It was captured
// while an allocating twin of the router still existed and agreed with
// RouteInto on every path; it must never change without a deliberate,
// documented change to the routing.
const goldenRoutePaths uint64 = 0x6cd3d0bcf85244a1

// TestRoutePathsDigest pins every path the router produces on a small
// fat-tree and a simple tree: every (x, y) pair, unknown IDs one past
// either end included, under several ECMP hashes. A pair that fails folds
// its error text instead of a path, so a change to any routing case moves
// the FNV-64a digest.
func TestRoutePathsDigest(t *testing.T) {
	ft, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewSimpleTree(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var word [8]byte
	buf := make([]NodeID, 0, 16)
	for _, tp := range []*Topology{ft, st} {
		h.Write([]byte(tp.Name()))
		for x := NodeID(-1); int(x) <= tp.Size(); x++ {
			for y := NodeID(-1); int(y) <= tp.Size(); y++ {
				for _, hash := range []uint64{0, 1, 7, 0xdeadbeef} {
					buf, err = tp.RouteInto(buf[:0], x, y, hash)
					if err != nil {
						h.Write([]byte(err.Error()))
						continue
					}
					binary.LittleEndian.PutUint64(word[:], uint64(len(buf)))
					h.Write(word[:])
					for _, id := range buf {
						binary.LittleEndian.PutUint64(word[:], uint64(id))
						h.Write(word[:])
					}
				}
			}
		}
	}
	if got := h.Sum64(); got != goldenRoutePaths {
		t.Errorf("route digest = %#016x, want %#016x", got, goldenRoutePaths)
	}
}

// TestRouteIntoAllocFree pins the hot-path property the sharded engine's
// throughput depends on: once the buffer has grown, cross-pod host↔host
// routing performs zero allocations.
func TestRouteIntoAllocFree(t *testing.T) {
	ft, err := NewFatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	hosts := ft.Hosts()
	x, y := hosts[0], hosts[len(hosts)-1] // cross-pod
	tor := ft.ToRs()[len(ft.ToRs())-1]
	buf := make([]NodeID, 0, 16)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = ft.RouteInto(buf[:0], x, y, 12345)
		if err != nil {
			t.Fatal(err)
		}
		buf, err = ft.RouteInto(buf[:0], x, tor, 999) // an RSNode-bound flow
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RouteInto allocates %v times per run, want 0", allocs)
	}
}

// TestFatTreeK32 validates the hyperscale arity the scale figure runs on:
// 8192 hosts, closed-form node and link counts, partition structure, and
// spot-checked routes.
func TestFatTreeK32(t *testing.T) {
	if testing.Short() {
		t.Skip("k=32 construction in -short mode")
	}
	ft, err := NewFatTree(32)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"hosts", len(ft.Hosts()), 8192},
		{"tors", len(ft.ToRs()), 512},
		{"aggs", len(ft.Aggs()), 512},
		{"cores", len(ft.Cores()), 256},
		{"nodes", ft.Size(), 9472},
		{"pods", ft.Pods(), 32},
		{"racks", ft.Racks(), 512},
		{"partitions", ft.PodPartitions(), 33},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	links := 0
	for id := NodeID(0); int(id) < ft.Size(); id++ {
		links += len(ft.Neighbors(id))
	}
	if got, want := links/2, 3*8192; got != want {
		t.Errorf("links = %d, want %d", got, want)
	}
	hosts := ft.Hosts()
	buf := make([]NodeID, 0, 16)
	for _, pair := range [][2]NodeID{
		{hosts[0], hosts[1]},            // same rack
		{hosts[0], hosts[17]},           // same pod
		{hosts[0], hosts[len(hosts)-1]}, // cross pod
	} {
		path, err := ft.RouteInto(buf[:0], pair[0], pair[1], 7)
		if err != nil {
			t.Fatal(err)
		}
		if path[0] != pair[0] || path[len(path)-1] != pair[1] {
			t.Errorf("%d→%d: path %v has the wrong endpoints", pair[0], pair[1], path)
		}
		for i := 0; i+1 < len(path); i++ {
			if !ft.Linked(path[i], path[i+1]) {
				t.Errorf("%d→%d: hop %d–%d not a link", pair[0], pair[1], path[i], path[i+1])
			}
		}
	}
	if got, want := fmt.Sprintf("fat-tree(k=%d)", 32), ft.Name(); got != want {
		t.Errorf("name %q, want %q", ft.Name(), want)
	}
}
