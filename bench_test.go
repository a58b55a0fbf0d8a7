package netrs

// The one root benchmark is the shard-scaling matrix behind
// scripts/bench_shards.sh. Host cost is measured by bench/ (bash
// bench/run.sh); the figure series and the design-choice ablations come
// from netrs-figs (-fig ablation).

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkShardScaling is the shards × GOMAXPROCS matrix at the paper's
// 16-ary scale (DefaultConfig: 1024 hosts, 100 servers, 500 clients) with
// 20 000 measured requests: every cell runs the same NetRS-ILP experiment
// (every shard count above one gives the same result), so ns/op isolates
// how the sharded engine's wall time responds to worker parallelism. Each cell reports its
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
					cfg.Requests = 20000
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
