package workload

import (
	"errors"
	"math"
	"testing"

	"netrs/internal/sim"
	"netrs/internal/topo"
)

func TestDeploy(t *testing.T) {
	ft, err := topo.NewFatTree(8) // 128 hosts
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	d, err := Deploy(ft, 20, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.ServerHosts) != 20 || len(d.ClientHosts) != 50 {
		t.Fatalf("deployment sizes %d/%d", len(d.ServerHosts), len(d.ClientHosts))
	}
	seen := map[topo.NodeID]bool{}
	for _, h := range append(append([]topo.NodeID{}, d.ServerHosts...), d.ClientHosts...) {
		if seen[h] {
			t.Fatal("host assigned two roles")
		}
		seen[h] = true
		node, err := ft.Node(h)
		if err != nil || node.Kind != topo.KindHost {
			t.Fatal("role on non-host")
		}
	}
}

func TestDeployValidation(t *testing.T) {
	ft, err := topo.NewFatTree(4) // 16 hosts
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	if _, err := Deploy(nil, 1, 1, rng); !errors.Is(err, ErrInvalidParam) {
		t.Error("nil topology accepted")
	}
	if _, err := Deploy(ft, 0, 1, rng); !errors.Is(err, ErrInvalidParam) {
		t.Error("zero servers accepted")
	}
	if _, err := Deploy(ft, 10, 7, rng); !errors.Is(err, ErrInvalidParam) {
		t.Error("oversubscription accepted")
	}
}

func TestDeployDeterministicPerSeed(t *testing.T) {
	ft, err := topo.NewFatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Deploy(ft, 10, 10, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Deploy(ft, 10, 10, sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.ServerHosts {
		if a.ServerHosts[i] != b.ServerHosts[i] {
			t.Fatal("same seed produced different deployments")
		}
	}
	c, err := Deploy(ft, 10, 10, sim.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range a.ServerHosts {
		if a.ServerHosts[i] != c.ServerHosts[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical deployments")
	}
}

func sourceConfig(total int) SourceConfig {
	return SourceConfig{
		Generators: 10,
		RatePerSec: 100000,
		Clients:    50,
		Keys:       1 << 20,
		ZipfTheta:  0.99,
		Total:      total,
	}
}

func TestSourceEmitsExactlyTotal(t *testing.T) {
	src, err := NewSource(sourceConfig(5000), sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	var got []Request
	prev := sim.Time(0)
	for at, req, ok := src.Next(); ok; at, req, ok = src.Next() {
		if at < prev {
			t.Fatalf("request %d at %v, before the one before it at %v", len(got), at, prev)
		}
		prev = at
		got = append(got, req)
	}
	if _, _, ok := src.Next(); len(got) != 5000 || ok {
		t.Fatalf("emitted %d, want 5000 and then nothing", len(got))
	}
	for i, r := range got {
		if r.Index != i {
			t.Fatalf("request %d has index %d", i, r.Index)
		}
		if r.Client < 0 || r.Client >= 50 {
			t.Fatalf("client %d out of range", r.Client)
		}
		if r.Key >= 1<<20 {
			t.Fatalf("key %d out of range", r.Key)
		}
	}
}

func TestSourceRate(t *testing.T) {
	_, ats := emitAll(t, sourceConfig(20000), 4)
	// 20000 requests at 100k/s should take ≈ 0.2 simulated seconds.
	span := float64(ats[len(ats)-1]) / float64(sim.Second)
	if math.Abs(span-0.2)/0.2 > 0.1 {
		t.Fatalf("span = %vs, want ~0.2s", span)
	}
}

func TestSourceUniformDemand(t *testing.T) {
	counts := make([]int, 50)
	reqs, _ := emitAll(t, sourceConfig(100000), 5)
	for _, r := range reqs {
		counts[r.Client]++
	}
	for c, n := range counts {
		if n < 1400 || n > 2600 {
			t.Fatalf("client %d issued %d of 100000 (want ~2000)", c, n)
		}
	}
}

func TestSourceDemandSkew(t *testing.T) {
	cfg := sourceConfig(100000)
	cfg.DemandSkew = 0.9
	cfg.HotFraction = 0.2
	counts := make([]int, 50)
	reqs, _ := emitAll(t, cfg, 6)
	for _, r := range reqs {
		counts[r.Client]++
	}
	hot := 0
	for c := 0; c < 10; c++ {
		hot += counts[c]
	}
	frac := float64(hot) / 100000
	if math.Abs(frac-0.9) > 0.02 {
		t.Fatalf("hot 20%% of clients issued %.3f of requests, want 0.9", frac)
	}
}

func TestSourceValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	bad := []SourceConfig{
		{},
		{Generators: 1, RatePerSec: 1, Clients: 1, Keys: 10, ZipfTheta: 0.99}, // Total 0
		{Generators: 1, RatePerSec: 1, Clients: 1, Keys: 1, ZipfTheta: 0.99, Total: 1},
		{Generators: 1, RatePerSec: 1, Clients: 1, Keys: 10, ZipfTheta: 1.5, Total: 1},
		{Generators: 1, RatePerSec: 1, Clients: 1, Keys: 10, ZipfTheta: 0.99, Total: 1, DemandSkew: 2},
		{Generators: 1, RatePerSec: 1, Clients: 1, Keys: 10, ZipfTheta: 0.99, Total: 1, DemandSkew: 0.5},
	}
	for i, cfg := range bad {
		if _, err := NewSource(cfg, rng); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := NewRecordingSource(sourceConfig(1), nil, rng, nil); !errors.Is(err, ErrInvalidParam) {
		t.Error("recording source without emit accepted")
	}
}

func TestUtilizationRate(t *testing.T) {
	// The paper's default: 90% of 100 servers × 4-way at 4 ms mean →
	// A = 0.9·100·4/0.004s = 90000 req/s.
	a, err := UtilizationRate(0.9, 100, 4, 4*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-90000) > 1e-6 {
		t.Fatalf("A = %v, want 90000", a)
	}
	if _, err := UtilizationRate(0, 1, 1, 1); !errors.Is(err, ErrInvalidParam) {
		t.Error("zero utilization accepted")
	}
	if _, err := UtilizationRate(0.5, 1, 1, 0); !errors.Is(err, ErrInvalidParam) {
		t.Error("zero service time accepted")
	}
}

func TestSourceDemandShift(t *testing.T) {
	cfg := sourceConfig(100000)
	cfg.DemandSkew = 0.9
	cfg.HotFraction = 0.2
	cfg.ShiftAt = 0.5
	cfg.ShiftFraction = 1
	pre := make([]int, 50)
	post := make([]int, 50)
	reqs, _ := emitAll(t, cfg, 6)
	for _, r := range reqs {
		if r.Index < 50000 {
			pre[r.Client]++
		} else {
			post[r.Client]++
		}
	}
	// Before the shift, clients 0–9 are hot; after it, the hot demand has
	// relocated half a population away, to clients 25–34.
	preHot, postOld, postNew := 0, 0, 0
	for c := 0; c < 10; c++ {
		preHot += pre[c]
		postOld += post[c]
	}
	for c := 25; c < 35; c++ {
		postNew += post[c]
	}
	if frac := float64(preHot) / 50000; math.Abs(frac-0.9) > 0.02 {
		t.Fatalf("pre-shift hot clients issued %.3f, want 0.9", frac)
	}
	if frac := float64(postNew) / 50000; math.Abs(frac-0.9) > 0.02 {
		t.Fatalf("post-shift relocated hot clients issued %.3f, want 0.9", frac)
	}
	if frac := float64(postOld) / 50000; frac > 0.05 {
		t.Fatalf("post-shift old hot clients still issued %.3f", frac)
	}
}

// TestSourceShiftPrefixUnchanged pins the zero-impact property the golden
// digests depend on: enabling the shift must not perturb a single request
// before the shift point (the post-shift alias table draws from its own
// RNG stream).
func TestSourceShiftPrefixUnchanged(t *testing.T) {
	run := func(shiftAt float64) []Request {
		cfg := sourceConfig(20000)
		cfg.DemandSkew = 0.9
		cfg.HotFraction = 0.2
		cfg.ShiftAt = shiftAt
		if shiftAt > 0 {
			cfg.ShiftFraction = 1
		}
		got, _ := emitAll(t, cfg, 7)
		return got
	}
	base := run(0)
	shifted := run(0.5)
	for i := 0; i < 10000; i++ {
		if base[i] != shifted[i] {
			t.Fatalf("request %d diverged before the shift: %+v vs %+v", i, base[i], shifted[i])
		}
	}
	diverged := false
	for i := 10000; i < 20000; i++ {
		if base[i].Client != shifted[i].Client {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("post-shift client sequence identical to the unshifted run")
	}
}

func TestSourceShiftValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	bad := sourceConfig(10)
	bad.ShiftAt = 1.5
	if _, err := NewSource(bad, rng); !errors.Is(err, ErrInvalidParam) {
		t.Error("shift at 1.5 accepted")
	}
	bad = sourceConfig(10)
	bad.ShiftAt = 0.5 // fraction missing
	if _, err := NewSource(bad, rng); !errors.Is(err, ErrInvalidParam) {
		t.Error("shift without fraction accepted")
	}
}
