package netrs

// The root benchmarks regenerate the ablations over the design choices
// DESIGN.md calls out (EXPERIMENTS.md "Ablations") and the shard-scaling
// matrix behind scripts/bench_shards.sh. Each ablation sub-benchmark runs
// one cell and reports the paper's statistics as custom metrics
// (mean_ms, p95_ms, p99_ms, p999_ms):
//
//	go test -run '^$' -bench=Ablation -benchmem .
//
// go test has no flags for a cell's size, so the environment sets it:
// NETRS_REQUESTS the request depth and NETRS_SCALE=paper the full
// 1024-host topology for the ablations. Host cost is measured by bench/
// (bash bench/run.sh) and the figure series by netrs-figs.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"netrs/internal/selection"
)

// benchRequests is the measured request depth of one benchmark run:
// 20000 unless NETRS_REQUESTS sets a positive count.
func benchRequests() int {
	if n, err := strconv.Atoi(os.Getenv("NETRS_REQUESTS")); err == nil && n > 0 {
		return n
	}
	return 20000
}

// benchConfig returns the ablation base configuration: the paper's
// parameters on a medium cluster (k=10, 50 servers, 120 clients) unless
// NETRS_SCALE=paper selects the full 16-ary fat-tree.
func benchConfig() Config {
	cfg := DefaultConfig()
	if os.Getenv("NETRS_SCALE") != "paper" {
		cfg.FatTreeK = 10 // 250 hosts
		cfg.Servers = 50
		cfg.Clients = 120
		cfg.Generators = 60
	}
	cfg.Requests = benchRequests()
	return cfg
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
	b.ReportMetric(sum.MeanMs, "mean_ms")
	b.ReportMetric(sum.P95Ms, "p95_ms")
	b.ReportMetric(sum.P99Ms, "p99_ms")
	b.ReportMetric(sum.P999Ms, "p999_ms")
}

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

// BenchmarkShardScaling is the shards × GOMAXPROCS matrix at the paper's
// 16-ary scale (DefaultConfig: 1024 hosts, 100 servers, 500 clients):
// every cell runs the same NetRS-ILP experiment (every shard count above
// one gives the same result), so ns/op isolates how the sharded engine's
// wall time responds to worker parallelism. Each cell reports its
// coordinates (shards, gomaxprocs) plus runtime.NumCPU() — the machine
// fact that decides whether a crossover is demonstrable: with procs ≥ 4
// real cores, shards=4 must beat shards=1; on fewer cores the barrier
// overhead has no parallelism to pay for it, which is exactly what the
// recorded num_cpu documents. scripts/bench_shards.sh gates on it.
func BenchmarkShardScaling(b *testing.B) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, shards := range []int{1, 2, 4} {
		for _, procs := range []int{1, 2, 4} {
			shards, procs := shards, procs
			b.Run(fmt.Sprintf("k=16/shards=%d/procs=%d", shards, procs), func(b *testing.B) {
				runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				var sum Summary
				for i := 0; i < b.N; i++ {
					cfg := DefaultConfig()
					cfg.Scheme = SchemeNetRSILP
					cfg.Requests = benchRequests()
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
