package netrs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// miniFig4 is the Fig. 4 sweep shrunk to the test cluster: same mutations,
// fewer requests, so the determinism check runs in seconds.
func miniFig4() (Config, Sweep) {
	cfg := testConfig()
	cfg.Requests = 1000
	return cfg, Figure4()
}

// TestSweepParallelismIsDeterministic is the determinism regression test:
// the Fig. 4 sweep at Parallelism=1 and Parallelism=8 with identical seeds
// must produce deep-equal cells — parallelism must never change numbers.
func TestSweepParallelismIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig4 grid twice")
	}
	cfg, sw := miniFig4()
	seeds := []uint64{1, 2}

	seq, err := RunSweep(cfg, sw, seeds, nil, RunOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSweep(cfg, sw, seeds, nil, RunOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Cells) != len(par.Cells) {
		t.Fatalf("cell counts differ: %d sequential vs %d parallel", len(seq.Cells), len(par.Cells))
	}
	for i := range seq.Cells {
		if !reflect.DeepEqual(seq.Cells[i], par.Cells[i]) {
			t.Fatalf("cell %d (x=%s %s) differs between Parallelism=1 and 8:\nseq: %+v\npar: %+v",
				i, seq.Cells[i].X, seq.Cells[i].Scheme, seq.Cells[i], par.Cells[i])
		}
	}
}

// TestRunRepeatedParallelismIsDeterministic checks the repeated-run facade
// the same way, including result ordering by seed.
func TestRunRepeatedParallelismIsDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = SchemeNetRSToR
	seeds := []uint64{3, 1, 2}

	seqRuns, seqMerged, err := RunRepeated(cfg, seeds, RunOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parRuns, parMerged, err := RunRepeated(cfg, seeds, RunOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRuns, parRuns) {
		t.Fatal("per-seed results differ between Parallelism=1 and 4")
	}
	if seqMerged != parMerged {
		t.Fatalf("merged summaries differ: %+v vs %+v", seqMerged, parMerged)
	}
}

// TestRunSweepPartialResultOnError checks a failing cell no longer
// discards the completed cells: the partial SweepResult comes back
// alongside the error.
func TestRunSweepPartialResultOnError(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 500
	sw := Sweep{
		ID:    "partial",
		Title: "partial-result sweep",
		XAxis: "Utilization",
		Points: []SweepPoint{
			{X: "ok", Mutate: func(c *Config) { c.Utilization = 0.5 }},
			{X: "bad", Mutate: func(c *Config) { c.Utilization = -1 }}, // fails validation
		},
		Schemes: []Scheme{SchemeCliRS},
	}
	res, err := RunSweep(cfg, sw, []uint64{1}, nil, RunOptions{Parallelism: 1})
	if err == nil {
		t.Fatal("invalid cell did not error")
	}
	if !strings.Contains(err.Error(), "x=bad") {
		t.Fatalf("error does not name the failed cell: %v", err)
	}
	if len(res.Cells) != 1 || res.Cells[0].X != "ok" {
		t.Fatalf("partial result lost the completed cell: %+v", res.Cells)
	}
	if _, ok := res.Lookup("ok", SchemeCliRS); !ok {
		t.Fatal("completed cell not queryable")
	}
}

// TestRunRepeatedBadSeedError checks the facade's error text still names
// the offending seed (no executor wrapper leaking through).
func TestRunRepeatedBadSeedError(t *testing.T) {
	cfg := testConfig()
	cfg.Utilization = -1
	_, _, err := RunRepeated(cfg, []uint64{7}, RunOptions{})
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	if !strings.HasPrefix(err.Error(), "seed 7:") {
		t.Fatalf("error = %q, want prefix \"seed 7:\"", err)
	}
}

// TestRunSweepProgressCoverage checks progress fires once per cell under
// parallel execution.
func TestRunSweepProgressCoverage(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 300
	sw := Sweep{
		ID:    "prog",
		Title: "progress sweep",
		XAxis: "Utilization",
		Points: []SweepPoint{
			{X: "30%", Mutate: func(c *Config) { c.Utilization = 0.3 }},
			{X: "60%", Mutate: func(c *Config) { c.Utilization = 0.6 }},
		},
		Schemes: []Scheme{SchemeCliRS, SchemeNetRSToR},
	}
	var mu sync.Mutex
	seen := map[string]int{}
	_, err := RunSweep(cfg, sw, []uint64{1, 2}, func(x string, s Scheme) {
		mu.Lock()
		seen[x+"/"+s.String()]++
		mu.Unlock()
	}, RunOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("progress covered %d cells, want 4: %v", len(seen), seen)
	}
	for cell, n := range seen {
		if n != 1 {
			t.Fatalf("cell %s reported %d times", cell, n)
		}
	}
}

// TestDeriveSeeds checks the facade helper produces n distinct,
// reproducible seeds.
func TestDeriveSeeds(t *testing.T) {
	a := DeriveSeeds(9, 16)
	b := DeriveSeeds(9, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("DeriveSeeds not reproducible")
	}
	uniq := map[uint64]bool{}
	for _, s := range a {
		uniq[s] = true
	}
	if len(uniq) != 16 {
		t.Fatalf("DeriveSeeds collided: %v", a)
	}
	if len(DeriveSeeds(9, 0)) != 0 {
		t.Fatal("DeriveSeeds(base, 0) not empty")
	}
}
