// Command netrs-trace works with workload traces: it generates synthetic
// traces (the paper's Poisson/Zipf workload, serialized for replay via the
// replayTracePath field of a netrs-sim -scenario file) and summarizes
// existing ones.
//
// Usage:
//
//	netrs-trace gen -out trace.csv -requests 100000 -rate 90000 -clients 500
//	netrs-trace stats -in trace.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"netrs/internal/sim"
	"netrs/internal/stats"
	"netrs/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "netrs-trace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: netrs-trace <gen|stats> [flags]")
	}
	switch args[0] {
	case "gen":
		return genCmd(args[1:])
	case "stats":
		return statsCmd(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func genCmd(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	out := fs.String("out", "trace.csv", "output file")
	requests := fs.Int("requests", 100000, "number of requests")
	rate := fs.Float64("rate", 90000, "aggregate arrival rate (req/s)")
	clients := fs.Int("clients", 500, "client population")
	generators := fs.Int("generators", 200, "Poisson generators")
	skew := fs.Float64("skew", 0, "demand skew (fraction from 20% of clients)")
	keys := fs.Uint64("keys", 100_000_000, "key-space size")
	theta := fs.Float64("theta", 0.99, "Zipf exponent")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := workload.SourceConfig{
		Generators:  *generators,
		RatePerSec:  *rate,
		Clients:     *clients,
		DemandSkew:  *skew,
		HotFraction: 0.2,
		Keys:        *keys,
		ZipfTheta:   *theta,
		Total:       *requests,
	}
	src, err := workload.NewSource(cfg, sim.NewRNG(*seed))
	if err != nil {
		return err
	}
	entries := make([]workload.TraceEntry, 0, *requests)
	for at, req, ok := src.Next(); ok; at, req, ok = src.Next() {
		entries = append(entries, workload.TraceEntry{At: at, Client: req.Client, Key: req.Key})
	}

	f, err := os.Create(*out)
	if err != nil {
		return fmt.Errorf("create %s: %w", *out, err)
	}
	if err := workload.WriteTrace(f, entries); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d requests over %v to %s\n", len(entries), entries[len(entries)-1].At, *out)
	return nil
}

func statsCmd(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	in := fs.String("in", "trace.csv", "input file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return fmt.Errorf("open %s: %w", *in, err)
	}
	defer f.Close()
	entries, err := workload.ReadTrace(f)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("trace %s is empty", *in)
	}

	span := entries[len(entries)-1].At
	ratePerSec := 0.0
	if span > 0 {
		ratePerSec = float64(len(entries)) / (float64(span) / float64(sim.Second))
	}
	clientCounts := map[int]int{}
	keyCounts := map[uint64]int{}
	var gaps stats.Welford
	for i, e := range entries {
		clientCounts[e.Client]++
		keyCounts[e.Key]++
		if i > 0 {
			gaps.Observe(float64(e.At - entries[i-1].At))
		}
	}
	maxClient := 0
	for _, c := range clientCounts {
		if c > maxClient {
			maxClient = c
		}
	}
	maxKey := 0
	for _, c := range keyCounts {
		if c > maxKey {
			maxKey = c
		}
	}
	fmt.Printf("requests        %d\n", len(entries))
	fmt.Printf("span            %v\n", span)
	fmt.Printf("rate            %.0f req/s\n", ratePerSec)
	fmt.Printf("clients         %d distinct (hottest issued %d)\n", len(clientCounts), maxClient)
	fmt.Printf("keys            %d distinct (hottest accessed %d times)\n", len(keyCounts), maxKey)
	fmt.Printf("interarrival    mean %.1fµs, cv %.2f (1.0 ≈ Poisson)\n",
		gaps.Mean()/float64(sim.Microsecond), gaps.CV())
	return nil
}
