package netrs

import (
	"strings"
	"sync/atomic"
	"testing"
)

// testConfig shrinks the experiment so facade tests run in milliseconds.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.FatTreeK = 8
	cfg.Servers = 20
	cfg.Clients = 40
	cfg.Generators = 20
	cfg.Requests = 2000
	cfg.Keys = 1 << 20
	cfg.VNodes = 16
	return cfg
}

func TestRunFacade(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = SchemeNetRSToR
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Count != cfg.Requests {
		t.Fatalf("measured %d", res.Summary.Count)
	}
}

func TestRunRepeatedMerges(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = SchemeCliRS
	runs, merged, err := RunRepeated(cfg, []uint64{1, 2, 3}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	if merged.Count != 3*cfg.Requests {
		t.Fatalf("merged count = %d", merged.Count)
	}
	// The merged mean is the average of the three per-run means.
	want := (runs[0].Summary.MeanMs + runs[1].Summary.MeanMs + runs[2].Summary.MeanMs) / 3
	if diff := merged.MeanMs - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("merged mean %v, want %v", merged.MeanMs, want)
	}
	if _, _, err := RunRepeated(cfg, nil, RunOptions{}); err == nil {
		t.Fatal("empty seeds accepted")
	}
}

func TestDefaultSeedsMirrorPaper(t *testing.T) {
	if len(DefaultSeeds()) != 3 {
		t.Fatalf("DefaultSeeds = %v, want 3 repetitions as in the paper", DefaultSeeds())
	}
}

func TestPaperFiguresDefinitions(t *testing.T) {
	figs := PaperFigures()
	if len(figs) != 4 {
		t.Fatalf("figures = %d, want 4 (Figs. 4–7)", len(figs))
	}
	wantPoints := map[string][]string{
		"fig4": {"100", "300", "500", "700"},
		"fig5": {"70%", "80%", "90%", "95%"},
		"fig6": {"30%", "50%", "70%", "90%"},
		"fig7": {"0.1", "0.5", "1.0", "2.0", "4.0"},
	}
	for _, f := range figs {
		want := wantPoints[f.ID]
		if len(f.Points) != len(want) {
			t.Fatalf("%s has %d points, want %d", f.ID, len(f.Points), len(want))
		}
		for i, pt := range f.Points {
			if pt.X != want[i] {
				t.Fatalf("%s point %d = %q, want %q", f.ID, i, pt.X, want[i])
			}
			cfg := DefaultConfig()
			pt.Mutate(&cfg) // must not panic and must change something
		}
	}
	// Mutations touch the right knobs.
	cfg := DefaultConfig()
	Figure4().Points[0].Mutate(&cfg)
	if cfg.Clients != 100 {
		t.Fatal("fig4 does not mutate clients")
	}
	cfg = DefaultConfig()
	Figure5().Points[3].Mutate(&cfg)
	if cfg.DemandSkew != 0.95 {
		t.Fatal("fig5 does not mutate skew")
	}
	cfg = DefaultConfig()
	Figure6().Points[0].Mutate(&cfg)
	if cfg.Utilization != 0.3 {
		t.Fatal("fig6 does not mutate utilization")
	}
	cfg = DefaultConfig()
	Figure7().Points[0].Mutate(&cfg)
	if cfg.MeanServiceTime != Millisecond/10 {
		t.Fatal("fig7 does not mutate service time")
	}
}

func TestFigureByID(t *testing.T) {
	for _, id := range []string{"fig4", "4", "FIG5", "7"} {
		if _, err := FigureByID(id); err != nil {
			t.Errorf("FigureByID(%q): %v", id, err)
		}
	}
	for _, sw := range AblationSweeps() {
		if got, err := FigureByID(sw.ID); err != nil || got.ID != sw.ID {
			t.Errorf("FigureByID(%q) = %q, %v", sw.ID, got.ID, err)
		}
	}
	if _, err := FigureByID("fig9"); err == nil {
		t.Error("bogus figure resolved")
	}
}

func TestRunSweepAndTable(t *testing.T) {
	base := testConfig()
	sw := Sweep{
		ID:    "mini",
		Title: "miniature utilization sweep",
		XAxis: "Utilization",
		Points: []SweepPoint{
			{X: "30%", Mutate: func(c *Config) { c.Utilization = 0.3 }},
			{X: "90%", Mutate: func(c *Config) { c.Utilization = 0.9 }},
		},
		Schemes: []Scheme{SchemeCliRS, SchemeNetRSILP},
	}
	// RunSweep calls progress from concurrent trials.
	var cells atomic.Int32
	res, err := RunSweep(base, sw, []uint64{1}, func(string, Scheme) { cells.Add(1) }, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cells.Load() != 4 || len(res.Cells) != 4 {
		t.Fatalf("evaluated %d cells, want 4", len(res.Cells))
	}
	lo, ok := res.Lookup("30%", SchemeCliRS)
	if !ok {
		t.Fatal("missing cell")
	}
	hi, ok := res.Lookup("90%", SchemeCliRS)
	if !ok {
		t.Fatal("missing cell")
	}
	if lo.MeanMs >= hi.MeanMs {
		t.Fatalf("30%% mean %.3f not below 90%% mean %.3f", lo.MeanMs, hi.MeanMs)
	}
	if _, ok := res.Lookup("50%", SchemeCliRS); ok {
		t.Fatal("lookup invented a cell")
	}

	table := res.Table()
	for _, want := range []string{"MINI", "Avg.", "99th Percentile", "Utilization", "CliRS", "NetRS-ILP", "30%", "90%"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}

	reds := res.Reductions()
	if len(reds["Avg."]) != 2 {
		t.Fatalf("reductions = %v", reds)
	}
	if res.MaxReduction("Avg.") < reds["Avg."][0] && res.MaxReduction("Avg.") < reds["Avg."][1] {
		t.Fatal("MaxReduction not the maximum")
	}
	if res.MaxReduction("nope") != 0 {
		t.Fatal("unknown metric should yield 0")
	}
}

func TestRunCacheStudy(t *testing.T) {
	base := testConfig()
	base.Requests = 1500
	base.WriteFraction = 0.05
	res, err := RunCacheStudy(base, []float64{0.99}, []int64{64 << 10}, []uint64{1}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One theta yields the four baselines plus the two cache schemes; the
	// flash-crowd panel compares NetRS-ToR, NetCache, and NetRS+Cache.
	if len(res.Cells) != 6 {
		t.Fatalf("got %d grid cells, want 6", len(res.Cells))
	}
	if len(res.Flash) != 3 {
		t.Fatalf("got %d flash cells, want 3", len(res.Flash))
	}
	cell, ok := res.Lookup("0.99", "64KiB", SchemeNetRSCache)
	if !ok {
		t.Fatal("missing NetRS+Cache cell")
	}
	if cell.HitRate <= 0 {
		t.Fatalf("NetRS+Cache hit rate %v, want positive", cell.HitRate)
	}
	if base2, ok := res.Lookup("0.99", "-", SchemeNetRSToR); !ok || base2.HitRate != 0 {
		t.Fatalf("baseline cell missing or caching: %+v ok=%v", base2, ok)
	}
	table := res.Table()
	for _, want := range []string{"CACHE", "zipf theta 0.99", "NetCache", "NetRS+Cache", "HitRate", "flash-crowd", "64KiB"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	// CacheWin never invents a verdict for an absent theta.
	if _, ok := res.CacheWin("1.10"); ok {
		t.Fatal("CacheWin invented a cell")
	}
	if _, err := RunCacheStudy(base, nil, []int64{1 << 10}, []uint64{1}, RunOptions{}); err == nil {
		t.Fatal("empty theta list accepted")
	}
	if _, err := RunCacheStudy(base, []float64{0.99}, []int64{1 << 10}, nil, RunOptions{}); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

// TestCacheStudyBudgets checks the budget axis: a descending list would
// run the flash cells below the largest budget and break CacheWin's
// smallest-winner order, a zero budget would label cache cells like the
// baselines, and labels must tell every budget apart.
func TestCacheStudyBudgets(t *testing.T) {
	base := testConfig()
	for _, budgets := range [][]int64{{64 << 10, 8 << 10}, {0, 8 << 10}, {8 << 10, 8 << 10}, {-1}} {
		_, err := RunCacheStudy(base, []float64{0.99}, budgets, []uint64{1}, RunOptions{})
		if err == nil || !strings.Contains(err.Error(), "strictly ascending") {
			t.Errorf("budgets %v: err = %v, want a rejection", budgets, err)
		}
	}
	for b, want := range map[int64]string{1024: "1KiB", 1536: "1536B", 100: "100B", 8 << 20: "8MiB", 1536 << 10: "1536KiB"} {
		if got := cacheBudgetLabel(b); got != want {
			t.Errorf("cacheBudgetLabel(%d) = %q, want %q", b, got, want)
		}
	}
}

// TestRunCacheStudyPartialResultOnError checks a failing theta keeps the
// cells that completed before it: θ = 1.5 is above the Zipf sampler's
// domain, so its first trial fails validation, and the sequential pool
// never reaches the flash cells after it.
func TestRunCacheStudyPartialResultOnError(t *testing.T) {
	base := testConfig()
	base.Requests = 500
	res, err := RunCacheStudy(base, []float64{0.99, 1.5}, []int64{64 << 10}, []uint64{1}, RunOptions{Parallelism: 1})
	if err == nil {
		t.Fatal("out-of-domain theta accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "theta=1.5") || !strings.Contains(msg, "seed 1") {
		t.Fatalf("error does not name the failed cell and seed: %v", err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("got %d cells, want the 6 θ=0.99 cells", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Theta != "0.99" {
			t.Errorf("cell %s/%s/%s survived the failed theta", c.Theta, c.Budget, c.Scheme)
		}
	}
	if len(res.Flash) != 0 {
		t.Fatalf("got %d flash cells, want none", len(res.Flash))
	}
}
