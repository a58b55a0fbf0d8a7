package topo

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func mustFatTree(t *testing.T, k int) *Topology {
	t.Helper()
	ft, err := NewFatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestFatTreeValidation(t *testing.T) {
	for _, k := range []int{0, 1, 3, -2} {
		if _, err := NewFatTree(k); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("NewFatTree(%d) err = %v", k, err)
		}
	}
}

func TestFatTreeCounts(t *testing.T) {
	cases := []struct {
		k, hosts, tors, aggs, cores, racks int
	}{
		{4, 16, 8, 8, 4, 8},
		{8, 128, 32, 32, 16, 32},
		{16, 1024, 128, 128, 64, 128},
	}
	for _, c := range cases {
		ft := mustFatTree(t, c.k)
		if got := len(ft.Hosts()); got != c.hosts {
			t.Errorf("k=%d hosts = %d, want %d", c.k, got, c.hosts)
		}
		if got := len(ft.ToRs()); got != c.tors {
			t.Errorf("k=%d tors = %d, want %d", c.k, got, c.tors)
		}
		if got := len(ft.Aggs()); got != c.aggs {
			t.Errorf("k=%d aggs = %d, want %d", c.k, got, c.aggs)
		}
		if got := len(ft.Cores()); got != c.cores {
			t.Errorf("k=%d cores = %d, want %d", c.k, got, c.cores)
		}
		if ft.Racks() != c.racks || ft.Pods() != c.k {
			t.Errorf("k=%d racks=%d pods=%d", c.k, ft.Racks(), ft.Pods())
		}
		if got := len(ft.Switches()); got != c.tors+c.aggs+c.cores {
			t.Errorf("k=%d switches = %d", c.k, got)
		}
	}
}

func TestFatTreePaperScale(t *testing.T) {
	// The paper simulates a 16-ary fat-tree containing 1024 end-hosts.
	ft := mustFatTree(t, 16)
	if len(ft.Hosts()) != 1024 {
		t.Fatalf("16-ary fat-tree has %d hosts, want 1024", len(ft.Hosts()))
	}
}

func TestFatTreeDegrees(t *testing.T) {
	const k = 8
	ft := mustFatTree(t, k)
	for _, id := range ft.Cores() {
		if d := len(ft.Neighbors(id)); d != k {
			t.Fatalf("core degree %d, want %d", d, k)
		}
	}
	for _, id := range ft.Aggs() {
		if d := len(ft.Neighbors(id)); d != k {
			t.Fatalf("agg degree %d, want %d", d, k)
		}
	}
	for _, id := range ft.ToRs() {
		if d := len(ft.Neighbors(id)); d != k {
			t.Fatalf("tor degree %d, want %d", d, k)
		}
	}
	for _, id := range ft.Hosts() {
		if d := len(ft.Neighbors(id)); d != 1 {
			t.Fatalf("host degree %d, want 1", d)
		}
	}
}

func TestNodeMetadata(t *testing.T) {
	ft := mustFatTree(t, 4)
	if _, err := ft.Node(-1); !errors.Is(err, ErrUnknownNode) {
		t.Error("negative node accepted")
	}
	if _, err := ft.Node(NodeID(ft.Size())); !errors.Is(err, ErrUnknownNode) {
		t.Error("out-of-range node accepted")
	}
	host := ft.Hosts()[0]
	n, err := ft.Node(host)
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != KindHost || n.Tier != TierHost || n.Rack != 0 || n.Pod != 0 {
		t.Fatalf("host0 metadata = %+v", n)
	}
	if n.Kind.String() != "host" || KindSwitch.String() != "switch" || Kind(99).String() == "" {
		t.Fatal("Kind.String broken")
	}
	core, _ := ft.Node(ft.Cores()[0])
	if core.Pod != -1 || core.Rack != -1 || core.Tier != TierCore {
		t.Fatalf("core metadata = %+v", core)
	}
}

func TestRackAndPodLookups(t *testing.T) {
	ft := mustFatTree(t, 4)
	tor, err := ft.ToROfRack(3)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := ft.Node(tor); n.Rack != 3 {
		t.Fatalf("ToROfRack(3) rack = %d", n.Rack)
	}
	hosts, err := ft.HostsInRack(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 2 {
		t.Fatalf("rack 3 has %d hosts", len(hosts))
	}
	for _, h := range hosts {
		if !ft.Linked(tor, h) {
			t.Fatal("rack host not linked to its ToR")
		}
	}
	aggs, err := ft.AggsInPod(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 2 {
		t.Fatalf("pod 1 has %d aggs", len(aggs))
	}
	if _, err := ft.ToROfRack(-1); err == nil {
		t.Error("negative rack accepted")
	}
	if _, err := ft.HostsInRack(99); err == nil {
		t.Error("big rack accepted")
	}
	if _, err := ft.AggsInPod(99); err == nil {
		t.Error("big pod accepted")
	}
}

func TestTrafficTier(t *testing.T) {
	ft := mustFatTree(t, 4)
	hosts := ft.Hosts() // 2 per rack, 4 per pod
	sameRack, _ := ft.TrafficTier(hosts[0], hosts[1])
	samePod, _ := ft.TrafficTier(hosts[0], hosts[2])
	crossPod, _ := ft.TrafficTier(hosts[0], hosts[5])
	if sameRack != TierToR || samePod != TierAgg || crossPod != TierCore {
		t.Fatalf("tiers = %d/%d/%d, want 2/1/0", sameRack, samePod, crossPod)
	}
	if _, err := ft.TrafficTier(hosts[0], ft.Cores()[0]); err == nil {
		t.Error("TrafficTier with switch accepted")
	}
}

func TestContains(t *testing.T) {
	ft := mustFatTree(t, 4)
	h := ft.Hosts()[0]
	hn, _ := ft.Node(h)
	tor, _ := ft.ToROfRack(hn.Rack)
	aggSame := ft.aggsByPod[hn.Pod][0]
	aggOther := ft.aggsByPod[hn.Pod+1][0]
	core := ft.Cores()[0]
	if !ft.Contains(core, h) || !ft.Contains(aggSame, h) || !ft.Contains(tor, h) {
		t.Fatal("ancestors must contain host")
	}
	if ft.Contains(aggOther, h) {
		t.Fatal("other pod's agg contains host")
	}
	otherTor, _ := ft.ToROfRack(hn.Rack + 1)
	if ft.Contains(otherTor, h) {
		t.Fatal("other rack's ToR contains host")
	}
}

// validatePath checks a route: endpoints match, consecutive nodes linked,
// no immediate backtracking, no repeated nodes.
func validatePath(t *testing.T, ft *Topology, path []NodeID, x, y NodeID) {
	t.Helper()
	if len(path) == 0 || path[0] != x || path[len(path)-1] != y {
		t.Fatalf("path %v does not connect %d→%d", path, x, y)
	}
	seen := map[NodeID]bool{}
	for i, n := range path {
		if seen[n] {
			t.Fatalf("path %v revisits node %d", path, n)
		}
		seen[n] = true
		if i > 0 && !ft.Linked(path[i-1], n) {
			t.Fatalf("path %v uses nonexistent link %d–%d", path, path[i-1], n)
		}
	}
}

func TestRouteHostPairsMatchBFSLength(t *testing.T) {
	ft := mustFatTree(t, 4)
	hosts := ft.Hosts()
	for _, x := range hosts {
		for _, y := range hosts {
			path, err := ft.RouteInto(nil, x, y, 12345)
			if err != nil {
				t.Fatal(err)
			}
			validatePath(t, ft, path, x, y)
			bfsPath, err := ft.bfs(nil, x, y)
			if err != nil {
				t.Fatal(err)
			}
			if len(path) != len(bfsPath) {
				t.Fatalf("route %d→%d length %d, shortest %d", x, y, len(path), len(bfsPath))
			}
		}
	}
}

func TestRouteHostSwitchBothDirections(t *testing.T) {
	ft := mustFatTree(t, 4)
	hosts := ft.Hosts()
	for _, x := range hosts[:4] {
		for _, s := range ft.Switches() {
			fwd, err := ft.RouteInto(nil, x, s, 7)
			if err != nil {
				t.Fatal(err)
			}
			validatePath(t, ft, fwd, x, s)
			rev, err := ft.RouteInto(nil, s, x, 7)
			if err != nil {
				t.Fatal(err)
			}
			validatePath(t, ft, rev, s, x)
			bfsPath, _ := ft.bfs(nil, x, s)
			if len(fwd) != len(bfsPath) || len(rev) != len(bfsPath) {
				t.Fatalf("host%d↔%d lengths %d/%d, shortest %d", x, s, len(fwd), len(rev), len(bfsPath))
			}
		}
	}
}

func TestRouteSelf(t *testing.T) {
	ft := mustFatTree(t, 4)
	p, err := ft.RouteInto(nil, 5, 5, 0)
	if err != nil || len(p) != 1 || p[0] != 5 {
		t.Fatalf("self route = %v, %v", p, err)
	}
}

func TestRouteUnknownNode(t *testing.T) {
	ft := mustFatTree(t, 4)
	if _, err := ft.RouteInto(nil, -1, 0, 0); !errors.Is(err, ErrUnknownNode) {
		t.Fatal("negative source accepted")
	}
	if _, err := ft.RouteInto(nil, 0, NodeID(ft.Size()), 0); !errors.Is(err, ErrUnknownNode) {
		t.Fatal("big target accepted")
	}
}

func TestRouteECMPDeterministicAndDiverse(t *testing.T) {
	ft := mustFatTree(t, 8)
	hosts := ft.Hosts()
	x, y := hosts[0], hosts[len(hosts)-1] // cross-pod
	a, err := ft.RouteInto(nil, x, y, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ft.RouteInto(nil, x, y, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same hash produced different paths")
		}
	}
	// Different hashes must reach multiple distinct cores.
	cores := map[NodeID]bool{}
	for h := uint64(0); h < 64; h++ {
		p, err := ft.RouteInto(nil, x, y, h)
		if err != nil {
			t.Fatal(err)
		}
		validatePath(t, ft, p, x, y)
		for _, n := range p {
			if nd, _ := ft.Node(n); nd.Tier == TierCore {
				cores[n] = true
			}
		}
	}
	if len(cores) < 4 {
		t.Fatalf("ECMP explored only %d cores", len(cores))
	}
}

func TestForwardsAndLinks(t *testing.T) {
	ft := mustFatTree(t, 4)
	hosts := ft.Hosts()
	cases := []struct {
		x, y              NodeID
		forwards, hopsLen int
	}{
		{hosts[0], hosts[1], 1, 2},  // same rack
		{hosts[0], hosts[2], 3, 4},  // same pod
		{hosts[0], hosts[15], 5, 6}, // cross pod
	}
	for _, c := range cases {
		p, err := ft.RouteInto(nil, c.x, c.y, 9)
		if err != nil {
			t.Fatal(err)
		}
		if ft.Forwards(p) != c.forwards || Links(p) != c.hopsLen {
			t.Fatalf("%d→%d forwards=%d links=%d, want %d/%d",
				c.x, c.y, ft.Forwards(p), Links(p), c.forwards, c.hopsLen)
		}
	}
	if Links(nil) != 0 {
		t.Fatal("Links(nil) != 0")
	}
}

func TestSimpleTree(t *testing.T) {
	st, err := NewSimpleTree(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Hosts()) != 24 || len(st.ToRs()) != 6 || len(st.Aggs()) != 2 || len(st.Cores()) != 1 {
		t.Fatalf("simple tree sizes: %d hosts %d tors %d aggs %d cores",
			len(st.Hosts()), len(st.ToRs()), len(st.Aggs()), len(st.Cores()))
	}
	hosts := st.Hosts()
	// Unique paths: any two hashes give identical routes.
	for _, pair := range [][2]NodeID{{hosts[0], hosts[1]}, {hosts[0], hosts[5]}, {hosts[0], hosts[23]}} {
		p1, err := st.RouteInto(nil, pair[0], pair[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := st.RouteInto(nil, pair[0], pair[1], 999)
		if err != nil {
			t.Fatal(err)
		}
		if len(p1) != len(p2) {
			t.Fatal("simple tree routes differ by hash")
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatal("simple tree routes differ by hash")
			}
		}
		validatePath(t, st, p1, pair[0], pair[1])
	}
	if _, err := NewSimpleTree(0, 1, 1); !errors.Is(err, ErrInvalidParam) {
		t.Error("zero aggs accepted")
	}
}

// Property: arbitrary host/switch pairs in a k=4 fat-tree always route, the
// path is valid, and its length equals the BFS shortest length.
func TestRoutePropertyAgainstBFS(t *testing.T) {
	ft := mustFatTree(t, 4)
	n := ft.Size()
	f := func(a, b uint16, hash uint64) bool {
		x := NodeID(int(a) % n)
		y := NodeID(int(b) % n)
		nx, _ := ft.Node(x)
		ny, _ := ft.Node(y)
		// Core↔core flows do not occur in NetRS; skip them.
		if nx.Tier == TierCore && ny.Tier == TierCore && x != y {
			return true
		}
		path, err := ft.RouteInto(nil, x, y, hash)
		if err != nil {
			return false
		}
		if path[0] != x || path[len(path)-1] != y {
			return false
		}
		for i := 1; i < len(path); i++ {
			if !ft.Linked(path[i-1], path[i]) {
				return false
			}
		}
		bfsPath, err := ft.bfs(nil, x, y)
		if err != nil {
			return false
		}
		return len(path) == len(bfsPath)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteCoreToCoreFallsBackToBFS(t *testing.T) {
	ft := mustFatTree(t, 4)
	cores := ft.Cores()
	p, err := ft.RouteInto(nil, cores[0], cores[len(cores)-1], 0)
	if err != nil {
		t.Fatal(err)
	}
	validatePath(t, ft, p, cores[0], cores[len(cores)-1])
}

func BenchmarkRouteCrossPod(b *testing.B) {
	ft, err := NewFatTree(16)
	if err != nil {
		b.Fatal(err)
	}
	hosts := ft.Hosts()
	x, y := hosts[0], hosts[len(hosts)-1]
	buf := make([]NodeID, 0, 16)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if buf, err = ft.RouteInto(buf[:0], x, y, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewFatTree16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewFatTree(16); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	ft := mustFatTree(t, 4)
	var buf strings.Builder
	if err := ft.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"graph \"fat-tree(k=4)\"",
		"subgraph cluster_pod0",
		"core0", "pod2/agg1", "pod3/tor1", "host15",
		"--",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dot output missing %q", want)
		}
	}
	// One edge line per physical link.
	edges := strings.Count(out, " -- ")
	wantEdges := 16 + 16 + 16 // host-tor + tor-agg + agg-core for k=4
	if edges != wantEdges {
		t.Fatalf("dot has %d edges, want %d", edges, wantEdges)
	}
}

// TestWriteDOTDeterministic pins the link section to sorted (a, b) order,
// stable across runs of the same binary; an earlier map-backed link set
// made the DOT bytes differ between runs.
func TestWriteDOTDeterministic(t *testing.T) {
	ft := mustFatTree(t, 4)
	render := func() string {
		var buf strings.Builder
		if err := ft.WriteDOT(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render()
	for i := 0; i < 10; i++ {
		if got := render(); got != first {
			t.Fatalf("WriteDOT output unstable on repeat %d", i)
		}
	}
	// The edge lines themselves must be in (a, b) sorted order, not just
	// stable within this process.
	var prev [2]int
	for _, line := range strings.Split(first, "\n") {
		line = strings.TrimSpace(line)
		if !strings.Contains(line, " -- ") {
			continue
		}
		var a, b int
		if _, err := fmt.Sscanf(line, "n%d -- n%d;", &a, &b); err != nil {
			t.Fatalf("unparsable edge line %q: %v", line, err)
		}
		if cur := [2]int{a, b}; !(prev[0] < cur[0] || (prev[0] == cur[0] && prev[1] < cur[1])) {
			t.Fatalf("edges out of order: %v then %v", prev, cur)
		} else {
			prev = cur
		}
	}
}
