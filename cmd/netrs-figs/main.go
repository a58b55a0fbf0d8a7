// Command netrs-figs regenerates the evaluation figures of the paper's §V
// (Figures 4–7) as text tables: one row per swept value, one column per
// scheme, one panel per statistic (Avg / 95th / 99th / 99.9th).
//
// Usage:
//
//	netrs-figs -fig all -requests 100000 -scale paper
//	netrs-figs -fig 6 -requests 20000 -scale small -seeds 1
//	netrs-figs -fig resilience -requests 40000
//
// -fig resilience runs the §III-C scenario-iii experiment time-resolved:
// the busiest RSNode crashes at 35% completion and recovers at 65%, and
// every scheme's run reports a 50 ms-bucketed latency/DRS-share timeline
// (the CliRS schemes, having no control plane, are the unaffected control
// curves). It uses the first seed of -seeds.
//
// -fig adapt runs the controller-epoch adaptation experiment: a NetRS-ILP
// workload whose hot client demand relocates to the opposite racks at 45%
// completion, once under the static initial plan and once with the
// controller re-solving the placement every 50 ms from windowed monitor
// rates. The accelerator is slowed to 150 µs per selection so placement
// capacity binds at simulation scale. It uses the first seed of -seeds.
//
// -fig matrix runs the selector × scenario conformance matrix: every
// replica-selection algorithm of -selectors at the RSNodes against every
// stress scenario of -scenarios (built-in names or JSON scenario files),
// merged across -seeds into one four-panel comparison table.
//
// -fig ablation runs the design-choice ablations (netrs.AblationSweeps):
// the RSNode selector, C3 rate control, traffic-group granularity and
// accelerator speed under NetRS-ILP, and cross-server cancellation of
// CliRS-R95's duplicates at 95% load, one table each. Any one of them runs
// alone by its ID, e.g. -fig ablation-selector.
//
// -fig cache runs the in-network cache tier study: a Zipf-skew ×
// cache-budget grid comparing NetCache (cache-only ToRs) and NetRS+Cache
// (ToR cache over the replica selector) against the four cacheless
// schemes, reporting latency, hit rate, and write-invalidation counts,
// plus a flash-crowd scenario cell. -write-fraction sets the write mix.
//
// The paper runs 6 M requests per point on a 1024-host fat-tree; that is
// hours of simulation per figure. -requests and -scale trade statistical
// depth for wall-clock time while preserving the comparisons' shape.
//
// Every (point, scheme, seed) trial is an independent simulation; -parallel
// fans them across a worker pool. Results are bit-identical at every parallelism level.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"netrs"
	"netrs/internal/cliutil"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netrs-figs:", err)
		os.Exit(1)
	}
}

// scaledConfig returns the base experiment at one of three sizes.
func scaledConfig(scale string) (netrs.Config, error) {
	cfg := netrs.DefaultConfig()
	switch scale {
	case "paper":
		// Full 16-ary fat-tree, 100 servers, 500 clients.
		return cfg, nil
	case "medium":
		cfg.FatTreeK = 10 // 250 hosts
		cfg.Servers = 50
		cfg.Clients = 120
		cfg.Generators = 60
		return cfg, nil
	case "small":
		cfg.FatTreeK = 8
		cfg.Servers = 20
		cfg.Clients = 40
		cfg.Generators = 20
		cfg.Keys = 1 << 20
		cfg.VNodes = 16
		return cfg, nil
	default:
		return cfg, fmt.Errorf("unknown scale %q (paper, medium, small)", scale)
	}
}

// run executes the command with args, writing the figures to stdout and
// progress to os.Stderr.
func run(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("netrs-figs", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: all, 4, 5, 6, 7, ablation, resilience, adapt, matrix, cache")
	requests := fs.Int("requests", 50000, "measured requests per point (paper: 6000000)")
	seedsFlag := fs.String("seeds", "1,2,3", "comma-separated deployment seeds (paper repeats 3×)")
	scale := fs.String("scale", "medium", "cluster scale: paper, medium, small")
	chart := fs.Bool("chart", false, "also draw bar charts for the Avg and 99th panels")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	parallel := fs.Int("parallel", 0, "concurrent trials: 0 = GOMAXPROCS, 1 = sequential")
	selectorsFlag := fs.String("selectors", "c3,tars,lor,p2c", "-fig matrix: comma-separated replica-selection algorithms")
	writeFraction := fs.Float64("write-fraction", 0.05, "-fig cache: workload write mix feeding cache invalidations")
	scenariosFlag := fs.String("scenarios", "steady,diurnal,flash-crowd,slow-rack,heterogeneous", "-fig matrix: comma-separated scenario names or JSON files")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
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

	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: want a nonnegative integer", *parallel)
	}

	base, err := scaledConfig(*scale)
	if err != nil {
		return err
	}
	base.Requests = *requests

	seeds, err := cliutil.ParseSeeds(*seedsFlag)
	if err != nil {
		return err
	}

	if *fig == "resilience" {
		return runResilience(stdout, base, seeds, *parallel)
	}
	if *fig == "adapt" {
		return runAdapt(stdout, base, seeds, *parallel)
	}
	if *fig == "matrix" {
		return runMatrix(stdout, base, seeds, *selectorsFlag, *scenariosFlag, *parallel, *quiet)
	}
	if *fig == "cache" {
		return runCache(stdout, base, seeds, *writeFraction, *parallel, *quiet)
	}

	var sweeps []netrs.Sweep
	switch *fig {
	case "all":
		sweeps = netrs.PaperFigures()
	case "ablation":
		sweeps = netrs.AblationSweeps()
	default:
		sw, err := netrs.FigureByID(*fig)
		if err != nil {
			return err
		}
		sweeps = []netrs.Sweep{sw}
	}

	for _, sw := range sweeps {
		start := time.Now()
		var progress func(x string, s netrs.Scheme)
		if !*quiet {
			// Trials report concurrently; serialize the progress lines.
			var mu sync.Mutex
			progress = func(x string, s netrs.Scheme) {
				mu.Lock()
				defer mu.Unlock()
				fmt.Fprintf(os.Stderr, "[%s] x=%-6s %-10s (%.0fs elapsed)\n",
					sw.ID, x, s, time.Since(start).Seconds())
			}
		}
		res, err := netrs.RunSweep(base, sw, seeds, progress, netrs.RunOptions{Parallelism: *parallel})
		if err := printTable(stdout, sw.ID, len(res.Cells), res.Table, err); err != nil {
			return err
		}
		if *chart {
			for _, panel := range []string{"Avg.", "99th Percentile"} {
				drawn, err := res.Chart(panel)
				if err != nil {
					return err
				}
				fmt.Fprintln(stdout, drawn)
			}
		}
		// Only a sweep that runs both schemes has a reduction to report.
		if len(res.Reductions()["Avg."]) > 0 {
			fmt.Fprintf(stdout, "NetRS-ILP vs CliRS: max mean reduction %.1f%%, max p99 reduction %.1f%%\n\n",
				res.MaxReduction("Avg."), res.MaxReduction("99th Percentile"))
		}
	}
	return nil
}

// runMatrix evaluates the selector × scenario conformance matrix: every
// algorithm named by -selectors runs at the RSNodes against every
// scenario named by -scenarios (built-in names or JSON files), merged
// across -seeds, and renders the four-panel comparison table.
func runMatrix(stdout io.Writer, base netrs.Config, seeds []uint64, selectorsArg, scenariosArg string, parallel int, quiet bool) error {
	selectors := splitList(selectorsArg)
	var scenarios []netrs.Scenario
	for _, name := range splitList(scenariosArg) {
		scn, err := netrs.ResolveScenario(name)
		if err != nil {
			return err
		}
		scenarios = append(scenarios, scn)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "[matrix] %d selectors × %d scenarios × %d seeds\n",
			len(selectors), len(scenarios), len(seeds))
	}
	res, err := netrs.RunMatrix(base, selectors, scenarios, seeds, netrs.RunOptions{Parallelism: parallel})
	return printTable(stdout, "matrix", len(res.Cells), res.Table, err)
}

// printTable prints a study's table and passes its error through. A failed
// study still prints the cells that completed, then reports itself
// incomplete, so a long run is not a total loss on one bad cell.
func printTable(stdout io.Writer, study string, cells int, table func() string, err error) error {
	if err == nil || cells > 0 {
		fmt.Fprintln(stdout, table())
	}
	if err != nil && cells > 0 {
		fmt.Fprintf(os.Stderr, "netrs-figs: %s incomplete: %d cells finished\n", study, cells)
	}
	return err
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(arg string) []string {
	var out []string
	for _, part := range strings.Split(arg, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// runCache evaluates the in-network cache tier study: Zipf skew × cache
// budget for NetCache and NetRS+Cache over the four cacheless baselines,
// plus the flash-crowd scenario cells, and prints a per-theta verdict on
// whether NetRS+Cache beats plain NetRS-ToR.
func runCache(stdout io.Writer, base netrs.Config, seeds []uint64, writeFraction float64, parallel int, quiet bool) error {
	base.WriteFraction = writeFraction
	thetas := []float64{0.90, 0.99, 1.10}
	budgets := []int64{8 << 10, 64 << 10, 512 << 10}
	if !quiet {
		fmt.Fprintf(os.Stderr, "[cache] %d thetas × %d budgets × %d seeds (write fraction %.1f%%)\n",
			len(thetas), len(budgets), len(seeds), 100*writeFraction)
	}
	res, err := netrs.RunCacheStudy(base, thetas, budgets, seeds, netrs.RunOptions{Parallelism: parallel})
	if err := printTable(stdout, "cache study", len(res.Cells), res.Table, err); err != nil {
		return err
	}
	for _, th := range res.Thetas {
		if bud, ok := res.CacheWin(th); ok {
			fmt.Fprintf(stdout, "theta %s: NetRS+Cache beats NetRS-ToR on mean AND p99 from budget %s\n", th, bud)
		} else {
			fmt.Fprintf(stdout, "theta %s: NetRS+Cache does NOT beat NetRS-ToR on both mean and p99\n", th)
		}
	}
	fmt.Fprintln(stdout)
	return nil
}

// runAdapt evaluates the controller-epoch adaptation experiment on the
// first seed: static plan versus periodic epochs through a mid-run demand
// shift, with a verdict line stating whether the epochs arm re-converged.
func runAdapt(stdout io.Writer, base netrs.Config, seeds []uint64, parallel int) error {
	base.Seed = seeds[0]
	base.DemandSkew = 0.9
	base.Fabric.AccelService = 150 * netrs.Microsecond
	// Host-level traffic groups: a rack can hold several hot clients, and
	// a single rack-level group whose demand exceeds one accelerator's
	// capacity cannot be re-placed at all.
	base.RackLevelGroups = false
	res, err := netrs.RunAdapt(base, 0.45, 50*netrs.Millisecond, 50*netrs.Millisecond, netrs.RunOptions{Parallelism: parallel})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, res.Table())
	epre, epost := res.PhaseMeans(res.Epochs)
	verdict := "epochs arm re-converged: settled post-shift mean within 25% of pre-shift"
	if epost > 1.25*epre {
		verdict = "epochs arm did NOT re-converge within 25% of its pre-shift mean"
	}
	fmt.Fprintln(stdout, verdict)
	return nil
}

// runResilience evaluates the crash/recovery resilience experiment on the
// first seed and prints the per-scheme timelines plus a degradation-window
// summary for the schemes that actually served degraded responses.
func runResilience(stdout io.Writer, base netrs.Config, seeds []uint64, parallel int) error {
	base.Seed = seeds[0]
	res, err := netrs.RunResilience(base, 0.35, 0.65, 50*netrs.Millisecond, netrs.RunOptions{Parallelism: parallel})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, res.Table())
	for _, run := range res.Runs {
		first, last, ok := res.DegradedWindow(run.Scheme)
		if !ok {
			continue
		}
		total := len(run.Result.Timeline)
		status := "still degraded at run end"
		if last < total-1 {
			status = "reconverged before run end"
		}
		fmt.Fprintf(stdout, "%s: degraded replica selection active in buckets %d-%d of %d (%s)\n",
			run.Scheme, first, last, total, status)
	}
	return nil
}
