// Command netrs-sim runs a NetRS experiment and prints its latency
// summary. With -seeds it repeats the experiment once per seed — in
// parallel up to -parallel workers — and reports the per-seed results plus
// the merged summary, mirroring the paper's three repetitions.
//
// Usage:
//
//	netrs-sim -scheme NetRS-ILP -requests 100000 -utilization 0.9
//	netrs-sim -scheme CliRS -clients 700 -json
//	netrs-sim -scheme NetRS-ILP -seeds 1,2,3 -parallel 3
//	netrs-sim -topo scale32 -shards 4 -requests 20000
//	netrs-sim -scheme NetRS-ToR -scenario flash-crowd
//	netrs-sim -list-selectors
//	netrs-sim -list-scenarios
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"netrs"
	"netrs/internal/cliutil"
	"netrs/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "netrs-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) (retErr error) {
	fs := flag.NewFlagSet("netrs-sim", flag.ContinueOnError)
	def := netrs.DefaultConfig()

	scheme := fs.String("scheme", "NetRS-ILP", "scheme: CliRS, CliRS-R95, NetRS-ToR, NetRS-ILP, NetCache, NetRS+Cache")
	seed := fs.Uint64("seed", def.Seed, "random seed (deployment, workload, service times)")
	seedsFlag := fs.String("seeds", "", "comma-separated seeds for repeated runs (overrides -seed; merged summary reported)")
	trialPar := fs.Int("parallel", 0, "concurrent repeated runs: 0 = GOMAXPROCS, 1 = sequential (not -parallelism, which is per-server capacity)")
	shards := fs.Int("shards", def.Shards, "intra-run worker count for the pod-parallel sharded engine (0/1 = a single partition; every value above 1 gives the same result)")
	topoPreset := fs.String("topo", "", "topology preset: scale16 (k=16, 1024 hosts) or scale32 (k=32, 8192 hosts); conflicts with -k/-servers/-clients/-generators")
	k := fs.Int("k", def.FatTreeK, "fat-tree arity (k=16 → 1024 hosts)")
	servers := fs.Int("servers", def.Servers, "number of replica servers (Ns)")
	parallel := fs.Int("parallelism", def.Parallelism, "per-server parallelism (Np)")
	serviceMs := fs.Float64("service-ms", def.MeanServiceTime.Float64Ms(), "mean service time tkv in ms")
	clients := fs.Int("clients", def.Clients, "number of clients")
	generators := fs.Int("generators", def.Generators, "number of Poisson workload generators")
	skew := fs.Float64("skew", def.DemandSkew, "demand skew: fraction of requests from 20% of clients (0 = uniform)")
	util := fs.Float64("utilization", def.Utilization, "target system utilization")
	requests := fs.Int("requests", def.Requests, "measured requests (paper: 6000000)")
	warmup := fs.Float64("warmup", def.WarmupFraction, "warmup fraction excluded from statistics")
	rateControl := fs.Bool("rate-control", def.RateControl, "enable C3 cubic rate control")
	rackGroups := fs.Bool("rack-groups", def.RackLevelGroups, "rack-level traffic groups (false = host-level)")
	epochMs := fs.Float64("epoch-ms", 0, "controller epoch interval in ms: re-solve the RSP from windowed monitor rates (NetRS-ILP only; 0 disables)")
	shiftAt := fs.Float64("shift-at", 0, "demand-shift position as the fraction of the run's requests emitted before it (0 disables; requires -skew)")
	shiftFraction := fs.Float64("shift-fraction", 0, "fraction of client demand relocated to the opposite racks at -shift-at")
	writeFraction := fs.Float64("write-fraction", def.WriteFraction, "fraction of requests that are writes (writes invalidate the ToR caches)")
	cacheBytes := fs.Int64("cache-bytes", def.CacheBytes, "ToR cache byte budget for NetCache / NetRS+Cache (0 disables the caches)")
	cacheAdmitAfter := fs.Int("cache-admit-after", def.CacheAdmitAfter, "misses a key needs before the ToR cache admits it (0 = package default)")
	jsonOut := fs.Bool("json", false, "emit the result as JSON")
	configPath := fs.String("config", "", "load the experiment from a JSON config file (flags are ignored)")
	scenarioArg := fs.String("scenario", "", "built-in scenario name or JSON scenario file (see -list-scenarios)")
	listSelectors := fs.Bool("list-selectors", false, "print the registered replica-selection algorithms, one per line, and exit")
	listScenarios := fs.Bool("list-scenarios", false, "print the built-in scenario names, one per line, and exit")
	saveConfig := fs.String("save-config", "", "write the effective config to a JSON file and exit")
	tracePath := fs.String("trace", "", "write the measured requests' latencies (ms, one per line, in arrival order) to this CSV file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")

	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listSelectors || *listScenarios {
		// Discovery flags mirror `netrs-lint -list-rules`: print the sorted
		// catalog and exit successfully. Combining them with run flags is a
		// usage error — the run flags would be silently ignored otherwise.
		if err := rejectRunFlags(fs); err != nil {
			return err
		}
		if *listSelectors {
			for _, name := range netrs.SelectorNames() {
				fmt.Println(name)
			}
		}
		if *listScenarios {
			for _, name := range netrs.ScenarioNames() {
				fmt.Println(name)
			}
		}
		return nil
	}
	stopProfiles, err := cliutil.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); retErr == nil {
			retErr = perr
		}
	}()
	if *trialPar < 0 {
		return fmt.Errorf("-parallel %d: want a nonnegative integer", *trialPar)
	}
	var seeds []uint64
	if *seedsFlag != "" {
		var err error
		if seeds, err = cliutil.ParseSeeds(*seedsFlag); err != nil {
			return err
		}
	}

	if *configPath != "" {
		cfg, err := netrs.LoadConfig(*configPath)
		if err != nil {
			return err
		}
		if err := applyScenario(&cfg, *scenarioArg); err != nil {
			return err
		}
		return execute(cfg, seeds, *trialPar, *jsonOut, *tracePath)
	}

	cfg := def
	cfg.Seed = *seed
	cfg.FatTreeK = *k
	cfg.Servers = *servers
	cfg.Parallelism = *parallel
	cfg.Shards = *shards
	cfg.MeanServiceTime = sim.FromMs(*serviceMs)
	cfg.Clients = *clients
	cfg.Generators = *generators
	cfg.DemandSkew = *skew
	cfg.Utilization = *util
	cfg.Requests = *requests
	cfg.WarmupFraction = *warmup
	cfg.RateControl = *rateControl
	cfg.RackLevelGroups = *rackGroups
	cfg.ControllerInterval = sim.FromMs(*epochMs)
	cfg.DemandShiftAt = *shiftAt
	cfg.DemandShiftFraction = *shiftFraction
	cfg.WriteFraction = *writeFraction
	cfg.CacheBytes = *cacheBytes
	cfg.CacheAdmitAfter = *cacheAdmitAfter
	if err := applyTopoPreset(&cfg, *topoPreset, fs); err != nil {
		return err
	}

	s, err := netrs.ParseScheme(*scheme)
	if err != nil {
		return err
	}
	cfg.Scheme = s
	if err := applyScenario(&cfg, *scenarioArg); err != nil {
		return err
	}

	if *saveConfig != "" {
		if err := netrs.SaveConfig(*saveConfig, cfg); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *saveConfig)
		return nil
	}
	return execute(cfg, seeds, *trialPar, *jsonOut, *tracePath)
}

// rejectRunFlags fails when a discovery flag (-list-selectors,
// -list-scenarios) is combined with any run flag: the discovery paths
// exit before the experiment executes, so a set run flag can only be a
// mistake and must not be dropped silently.
func rejectRunFlags(fs *flag.FlagSet) error {
	conflict := ""
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "list-selectors", "list-scenarios":
		default:
			conflict = f.Name
		}
	})
	if conflict != "" {
		return fmt.Errorf("-list-selectors/-list-scenarios print a catalog and exit; drop the conflicting -%s", conflict)
	}
	return nil
}

// topoPresets maps -topo names to cluster-scale settings: the fat-tree
// arity plus server/client/generator counts at DefaultConfig's ratios
// (servers ≈ 10% of hosts, clients ≈ 50%, one generator per 2.5 clients).
var topoPresets = map[string]struct{ k, servers, clients, generators int }{
	"scale16": {16, 100, 500, 200},
	"scale32": {32, 800, 4000, 1600},
}

// applyTopoPreset applies a -topo preset, rejecting explicit topology
// flags so a preset never silently loses to (or overrides) hand-set
// values.
func applyTopoPreset(cfg *netrs.Config, name string, fs *flag.FlagSet) error {
	if name == "" {
		return nil
	}
	p, ok := topoPresets[name]
	if !ok {
		return fmt.Errorf("-topo %q: unknown preset (have scale16, scale32)", name)
	}
	conflict := ""
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "k", "servers", "clients", "generators":
			conflict = f.Name
		}
	})
	if conflict != "" {
		return fmt.Errorf("-topo %s conflicts with explicit -%s", name, conflict)
	}
	cfg.FatTreeK = p.k
	cfg.Servers = p.servers
	cfg.Clients = p.clients
	cfg.Generators = p.generators
	return nil
}

// applyScenario resolves a -scenario argument (built-in name or JSON
// scenario file) into the config.
func applyScenario(cfg *netrs.Config, arg string) error {
	if arg == "" {
		return nil
	}
	scn, err := netrs.ResolveScenario(arg)
	if err != nil {
		return err
	}
	cfg.Scenario = scn
	return nil
}

// execute runs the experiment — once, or repeated over seeds — and prints
// the result.
func execute(cfg netrs.Config, seeds []uint64, parallel int, jsonOut bool, tracePath string) error {
	if len(seeds) > 1 {
		if tracePath != "" {
			return fmt.Errorf("-trace needs a single run; drop -seeds or pass one seed")
		}
		return executeRepeated(cfg, seeds, parallel, jsonOut)
	}
	if len(seeds) == 1 {
		cfg.Seed = seeds[0]
	}
	if tracePath != "" {
		cfg.KeepLatencyTrace = true
	}
	res, err := netrs.Run(cfg)
	if err != nil {
		return err
	}
	if tracePath != "" {
		var b strings.Builder
		b.WriteString("latency_ms\n")
		for _, v := range res.TraceMs {
			fmt.Fprintf(&b, "%.6f\n", v)
		}
		if err := os.WriteFile(tracePath, []byte(b.String()), 0o644); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Printf("scheme      %s\n", res.Scheme)
	fmt.Printf("latency     %s\n", res.Summary.String())
	fmt.Printf("rsnodes     %d\n", res.RSNodes)
	if res.Scheme == netrs.SchemeNetRSILP {
		fmt.Printf("plan        %v (degraded groups: %d)\n", res.PlanMethod, res.DegradedGroups)
	}
	if res.RedundantSent > 0 {
		fmt.Printf("redundant   %d duplicates\n", res.RedundantSent)
	}
	if res.CacheHits+res.CacheMisses > 0 {
		fmt.Printf("cache       %.1f%% hit rate (%d hits, %d admissions, %d invalidations)\n",
			100*res.CacheHitRate(), res.CacheHits, res.CacheAdmissions, res.CacheInvalidations)
	}
	if res.DegradedResponses > 0 {
		fmt.Printf("drs         %d responses via degraded replica selection\n", res.DegradedResponses)
	}
	fmt.Printf("simulated   %v for %d requests\n", res.SimulatedSpan, res.Completed)
	fmt.Printf("accel util  %.1f%% (busiest accelerator)\n", 100*res.MaxAccelUtilization)
	if len(res.Timeline) > 0 {
		fmt.Printf("\ntimeline\n%s", netrs.TimelineTable(res.Timeline))
	}
	if len(res.Epochs) > 0 {
		fmt.Printf("\ncontroller epochs\n%s", netrs.EpochTable(res.Epochs))
	}
	for _, e := range res.Errors {
		fmt.Printf("fault error %s\n", e)
	}
	return nil
}

// executeRepeated runs the experiment once per seed through the parallel
// executor and prints the per-seed and merged summaries.
func executeRepeated(cfg netrs.Config, seeds []uint64, parallel int, jsonOut bool) error {
	runs, merged, err := netrs.RunRepeated(cfg, seeds, netrs.RunOptions{Parallelism: parallel})
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Runs   []netrs.Result `json:"runs"`
			Merged netrs.Summary  `json:"merged"`
		}{runs, merged})
	}
	fmt.Printf("scheme      %s (%d repetitions)\n", runs[0].Scheme, len(runs))
	for i, res := range runs {
		fmt.Printf("seed %-6d %s\n", seeds[i], res.Summary.String())
	}
	fmt.Printf("merged      %s\n", merged.String())
	return nil
}
