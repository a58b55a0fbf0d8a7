// Algorithms: compare replica-selection algorithms (C3 and the classic
// baselines of §VI) head-to-head on a single fluctuating replica group —
// a miniature of the selection problem every RSNode solves.
package main

import (
	"fmt"
	"os"
	"sort"

	"netrs/internal/dist"
	"netrs/internal/kv"
	"netrs/internal/selection"
	"netrs/internal/sim"
	"netrs/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "algorithms:", err)
		os.Exit(1)
	}
}

// experiment runs one algorithm against three replicas whose performance
// fluctuates bimodally, and returns the latency summary.
func experiment(algo string, seed uint64) (stats.Summary, error) {
	eng := sim.NewEngine()
	root := sim.NewRNG(seed)

	serverCfg := kv.ServerConfig{
		Parallelism:         4,
		MeanServiceTime:     4 * sim.Millisecond,
		FluctuationInterval: 50 * sim.Millisecond,
		FluctuationRange:    3,
	}
	const replicas = 3
	servers := make([]*kv.Server, replicas)
	for i := range servers {
		srv, err := kv.NewServer(i, eng, serverCfg, root.Stream(uint64(10+i)))
		if err != nil {
			return stats.Summary{}, err
		}
		servers[i] = srv
		srv.Start()
	}

	sel, err := selection.New(algo, eng, root.Stream(99))
	if err != nil {
		return stats.Summary{}, err
	}

	// Open-loop Poisson arrivals at ~85% utilization of the group.
	rate := 0.85 * replicas * 4 / (4e-3) // req/s
	proc, err := dist.NewPoisson(rate, root.Stream(5))
	if err != nil {
		return stats.Summary{}, err
	}

	rec := stats.NewRecorder(0)
	candidates := []int{0, 1, 2}
	const total = 40000
	issued := 0
	completed := 0

	// A request's state travels as the argument of two handlers stored
	// once: launch (after any rate-control hold) and done (at service
	// completion), so no per-request closure is built.
	type request struct {
		server          int
		created, sentAt sim.Time
	}
	done := func(arg any, _ sim.Time) {
		req := arg.(*request)
		rec.Record(eng.Now() - req.created)
		sel.OnResponse(req.server, eng.Now()-req.sentAt, servers[req.server].Status())
		completed++
		if completed == total {
			eng.Stop() // RunUntil returns; the fluctuation ticks stay armed
		}
	}
	launch := func(arg any) {
		req := arg.(*request)
		req.sentAt = eng.Now()
		servers[req.server].Submit(kv.Request{Done: done, Arg: req})
	}

	var arrive func()
	arrive = func() {
		if issued >= total {
			return
		}
		issued++
		srvIdx, delay, err := sel.Pick(candidates)
		if err != nil {
			return
		}
		eng.MustScheduleArg(delay, launch, &request{server: srvIdx, created: eng.Now()})
		eng.MustSchedule(proc.NextInterarrival(), arrive)
	}
	eng.MustSchedule(proc.NextInterarrival(), arrive)
	eng.RunUntil(sim.FromSeconds(600))

	return rec.Summarize()
}

func run() error {
	fmt.Println("Replica-selection algorithms on one fluctuating replica group")
	fmt.Println("(3 replicas ×4 @ 4ms exponential, bimodal d=3 fluctuation, ~85% load)")
	fmt.Println()

	type row struct {
		algo string
		sum  stats.Summary
	}
	var rows []row
	for _, algo := range selection.Algorithms() {
		sum, err := experiment(algo, 42)
		if err != nil {
			return fmt.Errorf("%s: %w", algo, err)
		}
		rows = append(rows, row{algo, sum})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].sum.P99Ms < rows[j].sum.P99Ms })

	fmt.Printf("%-12s %10s %10s %10s %10s\n", "algorithm", "mean(ms)", "p95(ms)", "p99(ms)", "p99.9(ms)")
	for _, r := range rows {
		fmt.Printf("%-12s %10.3f %10.3f %10.3f %10.3f\n",
			r.algo, r.sum.MeanMs, r.sum.P95Ms, r.sum.P99Ms, r.sum.P999Ms)
	}
	fmt.Println("\n(lower is better; the adaptive, queue-aware algorithms — C3, LOR, P2C —")
	fmt.Println(" should clearly beat the oblivious round-robin and random baselines)")
	return nil
}
