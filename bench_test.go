package netrs

// The benchmark harness regenerates every figure of the paper's
// evaluation (§V, Figures 4–7) plus ablations over the design choices
// DESIGN.md calls out. Each sub-benchmark runs one (point, scheme) cell of
// a figure and reports the paper's statistics as custom metrics
// (mean_ms, p95_ms, p99_ms, p999_ms), so
//
//	go test -bench=Fig -benchmem
//
// prints the same series the figures plot. Absolute numbers depend on the
// scaled-down request count; set NETRS_REQUESTS (and NETRS_SCALE=paper for
// the full 1024-host topology) to approach the paper's 6 M-request depth.

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strconv"
	"testing"

	"netrs/internal/selection"
)

// benchConfig returns the benchmark base configuration: the paper's
// parameters on a medium cluster (k=8, 50 servers, 120 clients) unless
// NETRS_SCALE=paper selects the full 16-ary fat-tree.
func benchConfig() Config {
	cfg := DefaultConfig()
	if os.Getenv("NETRS_SCALE") != "paper" {
		cfg.FatTreeK = 10 // 250 hosts
		cfg.Servers = 50
		cfg.Clients = 120
		cfg.Generators = 60
	}
	cfg.Requests = 20000
	if env := os.Getenv("NETRS_REQUESTS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			cfg.Requests = n
		}
	}
	return cfg
}

// reportSummary attaches the figure statistics to the benchmark result.
func reportSummary(b *testing.B, s Summary) {
	b.Helper()
	b.ReportMetric(s.MeanMs, "mean_ms")
	b.ReportMetric(s.P95Ms, "p95_ms")
	b.ReportMetric(s.P99Ms, "p99_ms")
	b.ReportMetric(s.P999Ms, "p999_ms")
}

// benchCell runs one (mutation, scheme) cell b.N times with distinct
// seeds and reports the iteration-averaged summary, so cells remain
// comparable even when the framework picks different iteration counts.
func benchCell(b *testing.B, mutate func(*Config), scheme Scheme) {
	b.Helper()
	var sum Summary
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		mutate(&cfg)
		cfg.Scheme = scheme
		cfg.Seed = uint64(i + 1)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sum.Count += res.Summary.Count
		sum.MeanMs += res.Summary.MeanMs
		sum.P95Ms += res.Summary.P95Ms
		sum.P99Ms += res.Summary.P99Ms
		sum.P999Ms += res.Summary.P999Ms
	}
	n := float64(b.N)
	sum.MeanMs /= n
	sum.P95Ms /= n
	sum.P99Ms /= n
	sum.P999Ms /= n
	reportSummary(b, sum)
}

// benchFigure expands a sweep into point × scheme sub-benchmarks.
func benchFigure(b *testing.B, sw Sweep) {
	for _, pt := range sw.Points {
		for _, scheme := range Schemes() {
			name := fmt.Sprintf("x=%s/%s", pt.X, scheme)
			pt, scheme := pt, scheme
			b.Run(name, func(b *testing.B) { benchCell(b, pt.Mutate, scheme) })
		}
	}
}

// BenchmarkFig4NumClients regenerates Fig. 4: response latency versus the
// number of clients (100–700). Expected shape: CliRS degrades as clients
// grow; both NetRS schemes stay flat; NetRS-ILP lowest.
func BenchmarkFig4NumClients(b *testing.B) { benchFigure(b, Figure4()) }

// BenchmarkFig5DemandSkew regenerates Fig. 5: response latency versus
// demand skewness (70–95% of requests from 20% of clients). Expected
// shape: NetRS still wins but its margin narrows as skew grows.
func BenchmarkFig5DemandSkew(b *testing.B) { benchFigure(b, Figure5()) }

// BenchmarkFig6Utilization regenerates Fig. 6: response latency versus
// system utilization (30–90%). Expected shape: all schemes grow with
// load; NetRS-ILP's relative gain is largest at high utilization;
// CliRS-R95 wins tail latency only at low utilization.
func BenchmarkFig6Utilization(b *testing.B) { benchFigure(b, Figure6()) }

// BenchmarkFig7ServiceTime regenerates Fig. 7: response latency versus
// the mean service time (0.1–4 ms). Expected shape: NetRS-ILP's
// mean-latency margin shrinks at small service times (fixed network and
// accelerator overheads), while tail-latency gains persist.
func BenchmarkFig7ServiceTime(b *testing.B) { benchFigure(b, Figure7()) }

// BenchmarkAblationPlacement compares RSNode placements: the ILP plan,
// the ToR-only plan, and client-side selection — the §V-B finding that
// the ILP placement is a major contributor to NetRS's gains.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, scheme := range []Scheme{SchemeCliRS, SchemeNetRSToR, SchemeNetRSILP} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			benchCell(b, func(*Config) {}, scheme)
		})
	}
}

// BenchmarkAblationSelector swaps the replica-selection algorithm run at
// the NetRS RSNodes (§IV-C supports arbitrary algorithms).
func BenchmarkAblationSelector(b *testing.B) {
	for _, algo := range []string{
		selection.AlgoC3, selection.AlgoLeastOutstanding,
		selection.AlgoTwoChoices, selection.AlgoRandom,
	} {
		algo := algo
		b.Run(algo, func(b *testing.B) {
			benchCell(b, func(c *Config) { c.OperatorAlgorithm = algo }, SchemeNetRSILP)
		})
	}
}

// BenchmarkAblationRateControl toggles C3's cubic rate control at the
// RSNodes.
func BenchmarkAblationRateControl(b *testing.B) {
	for _, on := range []bool{true, false} {
		on := on
		b.Run(fmt.Sprintf("rateControl=%v", on), func(b *testing.B) {
			benchCell(b, func(c *Config) { c.RateControl = on }, SchemeNetRSILP)
		})
	}
}

// BenchmarkAblationGranularity compares rack-level against host-level
// traffic groups (§III-A's granularity trade-off).
func BenchmarkAblationGranularity(b *testing.B) {
	for _, rack := range []bool{true, false} {
		rack := rack
		name := "rack-level"
		if !rack {
			name = "host-level"
		}
		b.Run(name, func(b *testing.B) {
			benchCell(b, func(c *Config) { c.RackLevelGroups = rack }, SchemeNetRSILP)
		})
	}
}

// BenchmarkAblationCancellation compares CliRS-R95 with and without
// cross-server cancellation of duplicates (Dean & Barroso's mechanism,
// the paper's citation [9]) at high utilization, where redundancy load
// hurts most.
func BenchmarkAblationCancellation(b *testing.B) {
	for _, cancel := range []bool{false, true} {
		cancel := cancel
		name := "reissue-only"
		if cancel {
			name = "with-cancellation"
		}
		b.Run(name, func(b *testing.B) {
			benchCell(b, func(c *Config) {
				c.Utilization = 0.95
				c.CancelDuplicates = cancel
			}, SchemeCliRSR95)
		})
	}
}

// BenchmarkAblationAccelerator sweeps the accelerator service time — the
// sensitivity of in-network selection to device speed.
func BenchmarkAblationAccelerator(b *testing.B) {
	for _, us := range []float64{1, 5, 25, 100} {
		us := us
		b.Run(fmt.Sprintf("service=%.0fus", us), func(b *testing.B) {
			benchCell(b, func(c *Config) {
				c.Fabric.AccelService = Time(us * float64(Microsecond))
			}, SchemeNetRSILP)
		})
	}
}

// sweepFingerprint folds every statistic of every cell, bit for bit, into
// a 53-bit digest (exactly representable as a float64 benchmark metric).
// Equal digests across BenchmarkSweepSequential and BenchmarkSweepParallel
// confirm the executor's bit-identical-results guarantee on this machine.
func sweepFingerprint(res SweepResult) float64 {
	h := fnv.New64a()
	mix := func(v float64) {
		var buf [8]byte
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	mixSummary := func(s Summary) {
		mix(float64(s.Count))
		mix(s.MeanMs)
		mix(s.P95Ms)
		mix(s.P99Ms)
		mix(s.P999Ms)
	}
	for _, c := range res.Cells {
		mixSummary(c.Merged)
		for _, r := range c.Runs {
			mixSummary(r.Summary)
		}
	}
	return float64(h.Sum64() >> 11)
}

// benchSweep runs the Fig. 4 sweep end to end — every (point, scheme,
// seed) trial — at the given trial parallelism. One iteration is one full
// sweep, so ns/op compares wall-clock directly across parallelism levels.
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	cfg := benchConfig()
	// A full sweep multiplies the per-cell cost by points × schemes ×
	// seeds; trim the request depth so one iteration stays tractable.
	if cfg.Requests > 5000 && os.Getenv("NETRS_REQUESTS") == "" {
		cfg.Requests = 5000
	}
	seeds := DeriveSeeds(1, 2)
	sw := Figure4()
	var fp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunSweepWith(cfg, sw, seeds, nil, RunOptions{Parallelism: workers})
		if err != nil {
			b.Fatal(err)
		}
		fp = sweepFingerprint(res)
	}
	b.ReportMetric(fp, "digest")
}

// BenchmarkSweepSequential is the baseline: the Fig. 4 sweep with
// Parallelism=1, i.e. the pre-executor nested-loop behavior.
func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel runs the same sweep fanned across GOMAXPROCS
// workers (NETRS_PARALLEL overrides). On an N-core runner the speedup
// approaches min(N, trials); the digest metric must match
// BenchmarkSweepSequential exactly.
func BenchmarkSweepParallel(b *testing.B) {
	workers := 0
	if env := os.Getenv("NETRS_PARALLEL"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n >= 0 {
			workers = n
		}
	}
	benchSweep(b, workers)
}

// scaleCase is one hyperscale cell: a k-ary fat-tree at DefaultConfig's
// population ratios (the netrs-sim -topo presets), run on the sequential
// or the pod-parallel sharded engine.
type scaleCase struct {
	k, servers, clients, generators, shards int
}

func (c scaleCase) config() Config {
	cfg := DefaultConfig()
	cfg.FatTreeK = c.k
	cfg.Servers = c.servers
	cfg.Clients = c.clients
	cfg.Generators = c.generators
	cfg.Shards = c.shards
	cfg.Scheme = SchemeNetRSILP
	// A full hyperscale run is about topology and placement scale, not
	// request depth; keep iterations tractable (NETRS_REQUESTS overrides).
	cfg.Requests = 20000
	if env := os.Getenv("NETRS_REQUESTS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			cfg.Requests = n
		}
	}
	return cfg
}

// BenchmarkScaleFatTree runs one NetRS-ILP cell at the paper's 16-ary
// scale (1024 hosts) and at the hyperscale 32-ary fat-tree (8192 hosts),
// each on one partition and on the pod partitions — the shards=1/shards=4
// pairs measure the sharded engine's wall-clock effect on the same
// experiment (identical results on these seeds; DESIGN.md §11).
func BenchmarkScaleFatTree(b *testing.B) {
	cases := []scaleCase{
		{16, 100, 500, 200, 1},
		{16, 100, 500, 200, 4},
		{32, 800, 4000, 1600, 1},
		{32, 800, 4000, 1600, 4},
	}
	for _, c := range cases {
		c := c
		b.Run(fmt.Sprintf("k=%d/shards=%d", c.k, c.shards), func(b *testing.B) {
			var sum Summary
			for i := 0; i < b.N; i++ {
				cfg := c.config()
				cfg.Seed = uint64(i + 1)
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sum.Count += res.Summary.Count
				sum.MeanMs += res.Summary.MeanMs / float64(b.N)
				sum.P99Ms += res.Summary.P99Ms / float64(b.N)
			}
			b.ReportMetric(sum.MeanMs, "mean_ms")
			b.ReportMetric(sum.P99Ms, "p99_ms")
		})
	}
}

// BenchmarkShardScaling is the shards × GOMAXPROCS matrix at the paper's
// 16-ary scale: every cell runs the same NetRS-ILP experiment (every shard
// count above one gives the same result), so ns/op isolates how the
// sharded engine's wall time responds to worker parallelism. Each cell
// reports its coordinates (shards, gomaxprocs) plus runtime.NumCPU() —
// the machine fact that decides whether a crossover is demonstrable: with
// procs ≥ 4 real cores, shards=4 must beat shards=1; on fewer cores the
// barrier overhead has no parallelism to pay for it, which is exactly
// what the recorded num_cpu documents.
func BenchmarkShardScaling(b *testing.B) {
	c := scaleCase{k: 16, servers: 100, clients: 500, generators: 200}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, shards := range []int{1, 2, 4} {
		for _, procs := range []int{1, 2, 4} {
			shards, procs := shards, procs
			b.Run(fmt.Sprintf("k=%d/shards=%d/procs=%d", c.k, shards, procs), func(b *testing.B) {
				runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				var sum Summary
				for i := 0; i < b.N; i++ {
					cfg := c.config()
					cfg.Shards = shards
					cfg.Seed = uint64(i + 1)
					res, err := Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					sum.Count += res.Summary.Count
					sum.MeanMs += res.Summary.MeanMs / float64(b.N)
				}
				b.ReportMetric(sum.MeanMs, "mean_ms")
				b.ReportMetric(float64(shards), "shards")
				b.ReportMetric(float64(procs), "gomaxprocs")
				b.ReportMetric(float64(runtime.NumCPU()), "num_cpu")
			})
		}
	}
}

// BenchmarkEngineThroughput measures raw simulator speed: simulated
// requests per wall-clock second for a full NetRS-ILP run.
func BenchmarkEngineThroughput(b *testing.B) {
	cfg := benchConfig()
	cfg.Scheme = SchemeNetRSILP
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Requests)*float64(b.N)/b.Elapsed().Seconds(), "requests/s")
}
