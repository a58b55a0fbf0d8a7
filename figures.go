package netrs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"netrs/internal/render"
	"netrs/internal/selection"
	"netrs/internal/sim"
	"netrs/internal/stats"
)

// SweepPoint is one x-axis value of a figure: a label and the mutation it
// applies to the base configuration.
type SweepPoint struct {
	// X is the axis label ("500", "90%", "4.0ms", …).
	X string
	// Mutate applies the point's parameter to a config.
	Mutate func(*Config)
}

// Sweep describes one figure of the paper's evaluation, or one ablation:
// an x-axis parameter sweep run for every compared scheme.
type Sweep struct {
	// ID names the figure ("fig4" … "fig7", "ablation-selector", …).
	ID string
	// Title is the figure caption's subject.
	Title string
	// XAxis labels the swept parameter.
	XAxis string
	// Points are the swept values in presentation order.
	Points []SweepPoint
	// Schemes lists the compared schemes; empty means all four.
	Schemes []Scheme
}

// Figure4 sweeps the number of clients (Fig. 4: 100–700). The labels are
// the paper's client counts; on scaled-down clusters the actual count is
// proportional to the configured base (n/500 × Config.Clients), so the
// sweep fits any topology while preserving the paper's x-axis.
func Figure4() Sweep {
	points := make([]SweepPoint, 0, 4)
	for _, n := range []int{100, 300, 500, 700} {
		n := n
		points = append(points, SweepPoint{
			X: fmt.Sprint(n),
			Mutate: func(c *Config) {
				scaled := n * c.Clients / 500
				if scaled < 1 {
					scaled = 1
				}
				c.Clients = scaled
			},
		})
	}
	return Sweep{ID: "fig4", Title: "Impact of the number of clients", XAxis: "Number of Clients", Points: points}
}

// Figure5 sweeps the demand skewness (Fig. 5: 70–95% of requests from 20%
// of the clients).
func Figure5() Sweep {
	points := make([]SweepPoint, 0, 4)
	for _, pct := range []int{70, 80, 90, 95} {
		pct := pct
		points = append(points, SweepPoint{
			X:      fmt.Sprintf("%d%%", pct),
			Mutate: func(c *Config) { c.DemandSkew = float64(pct) / 100 },
		})
	}
	return Sweep{ID: "fig5", Title: "Impact of the demand skewness", XAxis: "Demand Skew", Points: points}
}

// Figure6 sweeps the system utilization (Fig. 6: 30–90%).
func Figure6() Sweep {
	points := make([]SweepPoint, 0, 4)
	for _, pct := range []int{30, 50, 70, 90} {
		pct := pct
		points = append(points, SweepPoint{
			X:      fmt.Sprintf("%d%%", pct),
			Mutate: func(c *Config) { c.Utilization = float64(pct) / 100 },
		})
	}
	return Sweep{ID: "fig6", Title: "Impact of the system utilization", XAxis: "Utilization", Points: points}
}

// Figure7 sweeps the mean service time (Fig. 7: 0.1–4 ms).
func Figure7() Sweep {
	points := make([]SweepPoint, 0, 5)
	for _, ms := range []float64{0.1, 0.5, 1.0, 2.0, 4.0} {
		ms := ms
		points = append(points, SweepPoint{
			X:      fmt.Sprintf("%.1f", ms),
			Mutate: func(c *Config) { c.MeanServiceTime = sim.FromMs(ms) },
		})
	}
	return Sweep{ID: "fig7", Title: "Impact of the service time", XAxis: "Service Time (ms)", Points: points}
}

// PaperFigures lists every evaluation figure of §V.
func PaperFigures() []Sweep {
	return []Sweep{Figure4(), Figure5(), Figure6(), Figure7()}
}

// AblationSweeps lists the design-choice studies: the RSNode selector,
// C3 rate control, traffic-group granularity and accelerator speed under
// NetRS-ILP, and cross-server cancellation of CliRS-R95's duplicates (the
// paper's citation [9]). Each sweeps one choice on top of whatever base
// configuration it is run at. Placement has no sweep of its own: Fig 4's
// 500-client row runs CliRS, NetRS-ToR and NetRS-ILP on the base client
// count.
func AblationSweeps() []Sweep {
	ilp := []Scheme{SchemeNetRSILP}
	var selectors, accel []SweepPoint
	for _, algo := range []string{selection.AlgoC3, selection.AlgoLeastOutstanding, selection.AlgoTwoChoices, selection.AlgoRandom} {
		algo := algo
		selectors = append(selectors, SweepPoint{X: algo, Mutate: func(c *Config) { c.OperatorAlgorithm = algo }})
	}
	for _, us := range []Time{1, 5, 25, 100} {
		us := us
		accel = append(accel, SweepPoint{X: fmt.Sprintf("%dus", us), Mutate: func(c *Config) { c.Fabric.AccelService = us * Microsecond }})
	}
	// Cancellation matters where redundancy load hurts most: at 95% load.
	cancel := func(on bool) func(*Config) {
		return func(c *Config) {
			c.Utilization = 0.95
			c.CancelDuplicates = on
		}
	}
	return []Sweep{
		{ID: "ablation-selector", Title: "Replica-selection algorithm at the RSNodes", XAxis: "Selector",
			Points: selectors, Schemes: ilp},
		{ID: "ablation-ratecontrol", Title: "C3 rate control at the RSNodes", XAxis: "Rate Control",
			Points: []SweepPoint{
				{X: "on", Mutate: func(c *Config) { c.RateControl = true }},
				{X: "off", Mutate: func(c *Config) { c.RateControl = false }},
			}, Schemes: ilp},
		{ID: "ablation-granularity", Title: "Traffic-group granularity", XAxis: "Groups",
			Points: []SweepPoint{
				{X: "rack-level", Mutate: func(c *Config) { c.RackLevelGroups = true }},
				{X: "host-level", Mutate: func(c *Config) { c.RackLevelGroups = false }},
			}, Schemes: ilp},
		{ID: "ablation-accelerator", Title: "Accelerator service time", XAxis: "Accel. Service",
			Points: accel, Schemes: ilp},
		{ID: "ablation-cancellation", Title: "Cross-server cancellation of duplicates at 95% utilization", XAxis: "Duplicates",
			Points: []SweepPoint{
				{X: "reissue-only", Mutate: cancel(false)},
				{X: "with-cancel", Mutate: cancel(true)},
			}, Schemes: []Scheme{SchemeCliRSR95}},
	}
}

// FigureByID resolves "fig4".."fig7" (or "4".."7") and the AblationSweeps
// IDs.
func FigureByID(id string) (Sweep, error) {
	id = strings.TrimPrefix(strings.ToLower(id), "fig")
	for _, s := range append(PaperFigures(), AblationSweeps()...) {
		if strings.TrimPrefix(s.ID, "fig") == id {
			return s, nil
		}
	}
	return Sweep{}, fmt.Errorf("netrs: unknown figure %q", id)
}

// Cell is one (x, scheme) measurement of a sweep.
type Cell struct {
	X      string
	Scheme Scheme
	// Merged is the seed-averaged summary.
	Merged Summary
	// Runs are the per-seed results.
	Runs []Result
}

// SweepResult is a fully evaluated figure.
type SweepResult struct {
	Sweep Sweep
	Cells []Cell
}

// RunSweep evaluates a figure: every point × every scheme × every seed.
// Every (point, scheme, seed) triple is one independent trial fanned
// across the worker pool that opts sizes. Progress (if non-nil) is invoked
// before each cell's first trial; it must be safe for concurrent use.
// Parallelism never changes the numbers — results are assembled by trial
// index, bit-identical to a sequential sweep. On failure it starts no
// further trial and returns the error together with the partial
// SweepResult holding every cell whose trials all completed — a long
// sweep is not a total loss on one bad cell.
func RunSweep(base Config, sw Sweep, seeds []uint64, progress func(x string, s Scheme), opts RunOptions) (SweepResult, error) {
	type cellDef struct {
		pt     SweepPoint
		scheme Scheme
	}
	var cells []cellDef
	for _, pt := range sw.Points {
		for _, scheme := range sw.schemes() {
			cells = append(cells, cellDef{pt, scheme})
		}
	}
	var onCell func(cellDef)
	if progress != nil {
		onCell = func(c cellDef) { progress(c.pt.X, c.scheme) }
	}
	done, err := runGrid(base, cells, seeds, opts, onCell,
		func(c cellDef, cfg *Config) {
			c.pt.Mutate(cfg)
			cfg.Scheme = c.scheme
		},
		func(c cellDef) string { return fmt.Sprintf("%s x=%s %s", sw.ID, c.pt.X, c.scheme) })
	out := SweepResult{Sweep: sw}
	for _, g := range done {
		c := cells[g.index]
		out.Cells = append(out.Cells, Cell{X: c.pt.X, Scheme: c.scheme, Merged: g.merged, Runs: g.runs})
	}
	return out, err
}

// schemes returns the sweep's compared schemes, defaulting to the paper's
// four.
func (sw Sweep) schemes() []Scheme {
	if len(sw.Schemes) == 0 {
		return Schemes()
	}
	return sw.Schemes
}

// Lookup returns the merged summary of one (x, scheme) cell.
func (r SweepResult) Lookup(x string, s Scheme) (Summary, bool) {
	for _, c := range r.Cells {
		if c.X == x && c.Scheme == s {
			return c.Merged, true
		}
	}
	return Summary{}, false
}

// metric extracts one panel's statistic from a summary.
type metric struct {
	name string
	get  func(Summary) float64
}

func panelMetrics() []metric {
	return []metric{
		{"Avg.", func(s Summary) float64 { return s.MeanMs }},
		{"95th Percentile", func(s Summary) float64 { return s.P95Ms }},
		{"99th Percentile", func(s Summary) float64 { return s.P99Ms }},
		{"99.9th Percentile", func(s Summary) float64 { return s.P999Ms }},
	}
}

// Table renders the figure as the four text panels the paper plots (Avg,
// 95th, 99th, 99.9th), schemes as columns and swept values as rows, all in
// milliseconds.
func (r SweepResult) Table() string {
	schemes := r.Sweep.schemes()
	var xs, names []string
	for _, pt := range r.Sweep.Points {
		xs = append(xs, pt.X)
	}
	for _, s := range schemes {
		names = append(names, s.String())
	}
	title := fmt.Sprintf("%s — %s", strings.ToUpper(r.Sweep.ID), r.Sweep.Title)
	return panelTable(title, r.Sweep.XAxis, xs, names, func(row, col int) (Summary, bool) {
		return r.Lookup(xs[row], schemes[col])
	})
}

// panelTable renders a two-axis study as the four text panels the paper
// plots (Avg, 95th, 99th, 99.9th), in milliseconds: one line per row, one
// column per col, and "-" wherever lookup(row, col) finds no cell.
func panelTable(title, axis string, rows, cols []string, lookup func(row, col int) (Summary, bool)) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, m := range panelMetrics() {
		fmt.Fprintf(&b, "\n[%s] latency (ms)\n", m.name)
		fmt.Fprintf(&b, "%-16s", axis)
		for _, col := range cols {
			fmt.Fprintf(&b, "%12s", col)
		}
		b.WriteByte('\n')
		for i, row := range rows {
			fmt.Fprintf(&b, "%-16s", row)
			for j := range cols {
				if sum, ok := lookup(i, j); ok {
					fmt.Fprintf(&b, "%12.3f", m.get(sum))
				} else {
					fmt.Fprintf(&b, "%12s", "-")
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Chart renders one panel of the figure as a grouped text bar chart.
// metricName is one of "Avg.", "95th Percentile", "99th Percentile",
// "99.9th Percentile".
func (r SweepResult) Chart(metricName string) (string, error) {
	var m metric
	found := false
	for _, cand := range panelMetrics() {
		if cand.name == metricName {
			m, found = cand, true
			break
		}
	}
	if !found {
		return "", fmt.Errorf("netrs: unknown chart metric %q", metricName)
	}
	chart := render.BarChart{
		Title:  fmt.Sprintf("%s — %s [%s]", strings.ToUpper(r.Sweep.ID), r.Sweep.Title, m.name),
		XLabel: "latency ms",
	}
	for _, pt := range r.Sweep.Points {
		chart.Labels = append(chart.Labels, fmt.Sprintf("%s %s", r.Sweep.XAxis, pt.X))
	}
	for _, s := range r.Sweep.schemes() {
		series := render.Series{Name: s.String()}
		for _, pt := range r.Sweep.Points {
			if sum, ok := r.Lookup(pt.X, s); ok {
				series.Values = append(series.Values, m.get(sum))
			} else {
				series.Values = append(series.Values, math.NaN())
			}
		}
		chart.Series = append(chart.Series, series)
	}
	return chart.Render()
}

// Reductions summarizes NetRS-ILP's latency reduction relative to CliRS
// across the sweep's points, as the paper headlines (up to 48.4% mean, up
// to 68.7% p99). Keys are the metric names of the panels.
func (r SweepResult) Reductions() map[string][]float64 {
	out := make(map[string][]float64)
	for _, m := range panelMetrics() {
		var vals []float64
		for _, pt := range r.Sweep.Points {
			cli, ok1 := r.Lookup(pt.X, SchemeCliRS)
			ilp, ok2 := r.Lookup(pt.X, SchemeNetRSILP)
			if !ok1 || !ok2 || stats.IsZero(m.get(cli)) {
				continue
			}
			vals = append(vals, 100*(m.get(cli)-m.get(ilp))/m.get(cli))
		}
		out[m.name] = vals
	}
	return out
}

// MaxReduction returns the largest reduction (percent) for a metric name,
// or 0 when absent.
func (r SweepResult) MaxReduction(metricName string) float64 {
	vals := r.Reductions()[metricName]
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return sorted[len(sorted)-1]
}

// ResilienceRun is one scheme's time-resolved run of the resilience
// experiment.
type ResilienceRun struct {
	Scheme Scheme
	Result Result
}

// ResilienceResult is a fully evaluated resilience experiment: every scheme
// run once through the same crash/recovery fault schedule with the timeline
// recorder attached.
type ResilienceResult struct {
	// CrashAt and RecoverAt are the completion fractions at which the
	// busiest RSNode fails and is re-admitted.
	CrashAt   float64
	RecoverAt float64
	// Bucket is the timeline bucket width.
	Bucket Time
	// Runs holds one entry per scheme, in Schemes() order.
	Runs []ResilienceRun
}

// RunResilience runs the §III-C scenario-iii experiment time-resolved: for
// every scheme, the busiest RSNode crashes once crashAt of the measured
// requests have completed (its traffic groups flip to Degraded Replica
// Selection) and the controller re-admits it at recoverAt, while a timeline
// recorder buckets latency and DRS share at the given width. The CliRS
// schemes carry no NetRS control plane, so their RSNode events record
// deterministic errors instead of applying — they are the experiment's
// unaffected control curves. Fractions position the events identically
// across schemes even though the schemes' simulated spans differ. Each
// scheme runs once under base.Seed; on failure the error comes back with
// the runs that completed.
func RunResilience(base Config, crashAt, recoverAt float64, bucket Time, opts RunOptions) (ResilienceResult, error) {
	out := ResilienceResult{CrashAt: crashAt, RecoverAt: recoverAt, Bucket: bucket}
	if !(crashAt > 0 && crashAt < recoverAt && recoverAt < 1) {
		return out, fmt.Errorf("netrs: resilience fractions crash=%v recover=%v: want 0 < crash < recover < 1", crashAt, recoverAt)
	}
	if bucket <= 0 {
		return out, fmt.Errorf("netrs: resilience bucket %v: want positive", bucket)
	}
	schemes := Schemes()
	done, err := runGrid(base, schemes, []uint64{base.Seed}, opts, nil,
		func(s Scheme, cfg *Config) {
			cfg.Scheme = s
			cfg.TimelineBucket = bucket
			cfg.Scenario.Faults = append(append([]FaultEvent(nil), base.Scenario.Faults...),
				FaultEvent{Kind: FaultRSNodeCrash, AtFraction: crashAt, RSNode: FaultTargetBusiest},
				FaultEvent{Kind: FaultRSNodeRecover, AtFraction: recoverAt, RSNode: FaultTargetFailed},
			)
		},
		func(s Scheme) string { return "resilience " + s.String() })
	for _, g := range done {
		out.Runs = append(out.Runs, ResilienceRun{Scheme: schemes[g.index], Result: g.runs[0]})
	}
	return out, err
}

// DegradedWindow reports the first and last timeline bucket indices with a
// nonzero DRS share in a scheme's run; ok is false when the run never served
// a degraded response (the CliRS control curves, or an unresolved scheme).
func (r ResilienceResult) DegradedWindow(s Scheme) (first, last int, ok bool) {
	for _, run := range r.Runs {
		if run.Scheme != s {
			continue
		}
		first = -1
		for i, b := range run.Result.Timeline {
			if b.DRSShare > 0 {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		return first, last, first >= 0
	}
	return 0, 0, false
}

// AdaptResult is a fully evaluated adaptation experiment: the same
// NetRS-ILP workload — with a mid-run demand shift between racks — run
// once under the static initial plan and once with periodic controller
// epochs re-solving the placement from windowed monitor rates.
type AdaptResult struct {
	// ShiftAt is the fraction of the run's requests emitted before the
	// demand shift lands (Config.DemandShiftAt).
	ShiftAt float64
	// Fraction is the share of client demand that moves racks.
	Fraction float64
	// Interval is the controller epoch period of the epochs arm.
	Interval Time
	// Bucket is the timeline bucket width.
	Bucket Time
	// Static is the arm with the initial plan left in force; Epochs the
	// arm with the periodic controller loop enabled.
	Static Result
	Epochs Result
}

// RunAdapt runs the controller-epoch adaptation experiment: a NetRS-ILP
// workload whose hot client demand relocates to the opposite racks at
// shiftAt of the run, evaluated time-resolved under a static initial
// plan and under controller epochs of the given interval. The base
// config's DemandShiftFraction defaults to 1 (the whole hot set moves)
// and DemandSkew to 0.9 when unset, so the shift has teeth. Both arms run
// under base.Seed; on failure the error comes back with whichever arm
// completed.
func RunAdapt(base Config, shiftAt float64, interval, bucket Time, opts RunOptions) (AdaptResult, error) {
	out := AdaptResult{ShiftAt: shiftAt, Interval: interval, Bucket: bucket}
	if !(shiftAt > 0 && shiftAt < 1) {
		return out, fmt.Errorf("netrs: adapt shift fraction %v: want 0 < shift < 1", shiftAt)
	}
	if interval <= 0 || bucket <= 0 {
		return out, fmt.Errorf("netrs: adapt interval %v, bucket %v: want positive", interval, bucket)
	}
	cfg := base
	cfg.Scheme = SchemeNetRSILP
	cfg.TimelineBucket = bucket
	cfg.DemandShiftAt = shiftAt
	if cfg.DemandShiftFraction <= 0 {
		cfg.DemandShiftFraction = 1
	}
	if cfg.DemandSkew <= 0 {
		cfg.DemandSkew = 0.9
	}
	out.Fraction = cfg.DemandShiftFraction
	type arm struct {
		interval Time
		res      *Result
	}
	arms := []arm{{0, &out.Static}, {interval, &out.Epochs}}
	done, err := runGrid(cfg, arms, []uint64{cfg.Seed}, opts, nil,
		func(a arm, c *Config) { c.ControllerInterval = a.interval },
		func(a arm) string { return fmt.Sprintf("adapt interval %v", a.interval) })
	for _, g := range done {
		*arms[g.index].res = g.runs[0]
	}
	return out, err
}

// weightedMeanMs is the request-weighted mean latency over a bucket range.
func weightedMeanMs(buckets []TimelineBucket) float64 {
	sum, n := 0.0, 0
	for _, b := range buckets {
		sum += b.MeanMs * float64(b.Count)
		n += b.Count
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// PhaseMeans reports a run's request-weighted mean latency over its first
// and final timeline quarters: the settled pre-shift and post-shift
// phases. Bucket quarters rather than the shift fraction bound the pre
// window because an overloaded run's span stretches past its emission
// span (the accelerator queue drains after the last request is sent), so
// ShiftAt of the buckets can land well after the shift itself; the first
// quarter is safely pre-shift for any ShiftAt ≥ 0.3.
func (r AdaptResult) PhaseMeans(res Result) (pre, post float64) {
	tl := res.Timeline
	n := len(tl)
	if n == 0 {
		return 0, 0
	}
	return weightedMeanMs(tl[:(n+3)/4]), weightedMeanMs(tl[3*n/4:])
}

// EpochTable renders a run's controller-epoch history as a fixed-width
// table. The wall-clock solve time is deliberately omitted: the table is
// reproducible output.
func EpochTable(eps []EpochRecord) string {
	if len(eps) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("    at(ms)  rsnodes  moved  degraded  action\n")
	for _, e := range eps {
		action := "deploy"
		if e.Kept {
			action = "keep"
		}
		fmt.Fprintf(&b, "%10.1f  %7d  %5d  %8d  %s\n",
			e.AtMs, e.RSNodes, e.MovedGroups, e.DegradedGroups, action)
	}
	return b.String()
}

// Table renders the adaptation experiment: both arms' summaries and
// timelines, the epochs arm's plan history, and the pre/post-shift means
// the re-convergence claim rests on.
func (r AdaptResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ADAPT — %.0f%% of hot demand shifts racks at %.0f%% completion (epochs every %v, buckets of %v)\n",
		100*r.Fraction, 100*r.ShiftAt, r.Interval, r.Bucket)
	for _, arm := range []struct {
		name string
		res  Result
	}{{"static plan", r.Static}, {"controller epochs", r.Epochs}} {
		fmt.Fprintf(&b, "\n[%s] %s\n", arm.name, arm.res.Summary.String())
		b.WriteString(stats.TimelineTable(arm.res.Timeline))
		if len(arm.res.Epochs) > 0 {
			b.WriteString(EpochTable(arm.res.Epochs))
		}
		for _, e := range arm.res.Errors {
			fmt.Fprintf(&b, "! %s\n", e)
		}
	}
	spre, spost := r.PhaseMeans(r.Static)
	epre, epost := r.PhaseMeans(r.Epochs)
	fmt.Fprintf(&b, "\npre-shift mean %.3f ms; settled post-shift mean: static %.3f ms (%+.1f%%), epochs %.3f ms (%+.1f%%)\n",
		spre, spost, 100*(spost/spre-1), epost, 100*(epost/epre-1))
	return b.String()
}

// Table renders the experiment: one timeline panel per scheme — each row a
// bucket's mean/p99 latency, DRS share, and timeout expiries — followed by
// the run's recorded fault errors (the CliRS panels always carry two: the
// crash and recovery events cannot apply without a control plane).
func (r ResilienceResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RESILIENCE — busiest RSNode crashes at %.0f%% completion, recovers at %.0f%% (buckets of %v)\n",
		100*r.CrashAt, 100*r.RecoverAt, r.Bucket)
	for _, run := range r.Runs {
		res := run.Result
		fmt.Fprintf(&b, "\n[%s] %s\n", run.Scheme, res.Summary.String())
		if res.DegradedResponses > 0 {
			fmt.Fprintf(&b, "%d responses via degraded replica selection\n", res.DegradedResponses)
		}
		b.WriteString(stats.TimelineTable(res.Timeline))
		for _, e := range res.Errors {
			fmt.Fprintf(&b, "! %s\n", e)
		}
	}
	return b.String()
}

// MatrixCell is one (selector, scenario) measurement of the conformance
// matrix.
type MatrixCell struct {
	Selector string
	Scenario string
	// Merged is the seed-averaged summary.
	Merged Summary
	// Runs are the per-seed results.
	Runs []Result
}

// MatrixResult is a fully evaluated selector × scenario matrix.
type MatrixResult struct {
	Scheme    Scheme
	Selectors []string
	Scenarios []string
	Cells     []MatrixCell
}

// RunMatrix evaluates the selector × scenario conformance matrix: every
// selection algorithm runs at the RSNodes (Config.OperatorAlgorithm)
// against every scenario, once per seed, each trial fanned independently
// across the worker pool. Selectors act in-network, so the base scheme
// must be a NetRS scheme; anything else silently promotes to NetRS-ToR
// (under CliRS the operator algorithm is never consulted). On failure it
// starts no further trial and returns the error together with the
// partial MatrixResult holding every cell whose trials all completed.
func RunMatrix(base Config, selectors []string, scenarios []Scenario, seeds []uint64, opts RunOptions) (MatrixResult, error) {
	out := MatrixResult{}
	if len(selectors) == 0 || len(scenarios) == 0 {
		return out, fmt.Errorf("netrs: matrix needs at least one selector and one scenario")
	}
	known := SelectorNames()
	for _, sel := range selectors {
		if !slices.Contains(known, sel) {
			return out, fmt.Errorf("netrs: unknown selector %q (have %v)", sel, known)
		}
	}
	scheme := base.Scheme
	if scheme != SchemeNetRSToR && scheme != SchemeNetRSILP {
		scheme = SchemeNetRSToR
	}
	out.Scheme = scheme
	out.Selectors = append([]string(nil), selectors...)
	for _, scn := range scenarios {
		out.Scenarios = append(out.Scenarios, scn.Label())
	}

	type cellDef struct {
		selector string
		scn      Scenario
	}
	var cells []cellDef
	for _, scn := range scenarios {
		for _, sel := range selectors {
			cells = append(cells, cellDef{sel, scn})
		}
	}
	done, err := runGrid(base, cells, seeds, opts, nil,
		func(c cellDef, cfg *Config) {
			cfg.Scheme = scheme
			cfg.OperatorAlgorithm = c.selector
			cfg.Scenario = c.scn
		},
		func(c cellDef) string { return fmt.Sprintf("matrix %s × %s", c.selector, c.scn.Label()) })
	for _, g := range done {
		c := cells[g.index]
		out.Cells = append(out.Cells, MatrixCell{
			Selector: c.selector,
			Scenario: c.scn.Label(),
			Merged:   g.merged,
			Runs:     g.runs,
		})
	}
	return out, err
}

// Lookup returns the merged summary of one (selector, scenario) cell.
func (r MatrixResult) Lookup(selector, scenario string) (Summary, bool) {
	for _, c := range r.Cells {
		if c.Selector == selector && c.Scenario == scenario {
			return c.Merged, true
		}
	}
	return Summary{}, false
}

// CacheCell is one (theta, budget, scheme) measurement of the cache
// study. The four cacheless baselines carry Budget "-" and a zero
// HitRate; the cache schemes aggregate their ToR-cache counters across
// seeds.
type CacheCell struct {
	Theta  string
	Budget string
	Scheme Scheme
	// Merged is the seed-averaged summary.
	Merged Summary
	// HitRate is hits/(hits+misses) over the ToR caches, summed across
	// seeds before dividing.
	HitRate float64
	// Invalidations counts cache entries removed by write-invalidation
	// messages, summed across seeds.
	Invalidations uint64
	// Runs are the per-seed results.
	Runs []Result
}

// CacheStudyResult is a fully evaluated cache study: the Zipf-skew ×
// cache-budget grid over every scheme, plus the flash-crowd scenario
// cells run at the base skew and the largest budget.
type CacheStudyResult struct {
	// WriteFraction is the workload write mix the study ran under; writes
	// bypass the caches and fan invalidations out to them.
	WriteFraction float64
	Thetas        []string
	Budgets       []string
	Cells         []CacheCell
	// Flash holds the flash-crowd scenario comparison (NetRS-ToR,
	// NetCache, NetRS+Cache).
	Flash []CacheCell
}

// cacheThetaLabel is the study's theta axis label.
func cacheThetaLabel(th float64) string { return fmt.Sprintf("%.2f", th) }

// cacheBudgetLabel prints a budget in the largest of MiB, KiB and bytes
// that divides it, so distinct budgets always get distinct labels.
func cacheBudgetLabel(b int64) string {
	switch {
	case b%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", b>>20)
	case b%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

// cacheHitRate aggregates hits/(hits+misses) across a cell's runs.
func cacheHitRate(runs []Result) float64 {
	var hits, lookups uint64
	for _, res := range runs {
		hits += res.CacheHits
		lookups += res.CacheHits + res.CacheMisses
	}
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

// RunCacheStudy evaluates the in-network cache tier: every Zipf theta ×
// every cache byte budget for the two cache schemes (NetCache,
// NetRS+Cache), with the four cacheless schemes run once per theta as
// baselines, everything merged across seeds. A final flash-crowd cell
// re-runs NetRS-ToR, NetCache, and NetRS+Cache at the base config's skew
// and the largest budget under the built-in flash-crowd scenario — the
// hot-key spike is exactly the traffic a ToR cache should absorb. The
// write mix comes from base.WriteFraction (writes invalidate). Budgets
// must be positive and strictly ascending. Every (cell, seed) trial fans
// independently across the worker pool; on failure the partial result
// holds every cell whose trials all completed.
func RunCacheStudy(base Config, thetas []float64, budgets []int64, seeds []uint64, opts RunOptions) (CacheStudyResult, error) {
	out := CacheStudyResult{WriteFraction: base.WriteFraction}
	if len(thetas) == 0 || len(budgets) == 0 {
		return out, fmt.Errorf("netrs: cache study needs at least one theta and one budget")
	}
	for i, bud := range budgets {
		if bud <= 0 || (i > 0 && bud <= budgets[i-1]) {
			return out, fmt.Errorf("netrs: cache budgets %v: want positive and strictly ascending", budgets)
		}
		out.Budgets = append(out.Budgets, cacheBudgetLabel(bud))
	}
	for _, th := range thetas {
		out.Thetas = append(out.Thetas, cacheThetaLabel(th))
	}
	flashScn, err := ScenarioByName("flash-crowd")
	if err != nil {
		return out, err
	}

	type cellDef struct {
		theta  float64
		budget int64 // 0 for the cacheless baselines
		scheme Scheme
		flash  bool
	}
	var cells []cellDef
	for _, th := range thetas {
		for _, s := range Schemes() {
			cells = append(cells, cellDef{theta: th, scheme: s})
		}
		for _, bud := range budgets {
			cells = append(cells, cellDef{theta: th, budget: bud, scheme: SchemeNetCache})
			cells = append(cells, cellDef{theta: th, budget: bud, scheme: SchemeNetRSCache})
		}
	}
	for _, s := range []Scheme{SchemeNetRSToR, SchemeNetCache, SchemeNetRSCache} {
		bud := budgets[len(budgets)-1] // the largest: budgets ascend
		if s == SchemeNetRSToR {
			bud = 0
		}
		cells = append(cells, cellDef{theta: base.ZipfTheta, budget: bud, scheme: s, flash: true})
	}

	done, err := runGrid(base, cells, seeds, opts, nil,
		func(c cellDef, cfg *Config) {
			cfg.ZipfTheta = c.theta
			cfg.Scheme = c.scheme
			cfg.CacheBytes = c.budget
			if c.flash {
				cfg.Scenario = flashScn
			}
		},
		func(c cellDef) string { return fmt.Sprintf("cache theta=%v budget=%d %s", c.theta, c.budget, c.scheme) })
	for _, g := range done {
		c := cells[g.index]
		var inval uint64
		for _, res := range g.runs {
			inval += res.CacheInvalidations
		}
		// Budgets are positive, so only the cacheless cells carry 0.
		budget := "-"
		if c.budget > 0 {
			budget = cacheBudgetLabel(c.budget)
		}
		cell := CacheCell{
			Theta:         cacheThetaLabel(c.theta),
			Budget:        budget,
			Scheme:        c.scheme,
			Merged:        g.merged,
			HitRate:       cacheHitRate(g.runs),
			Invalidations: inval,
			Runs:          g.runs,
		}
		if c.flash {
			out.Flash = append(out.Flash, cell)
		} else {
			out.Cells = append(out.Cells, cell)
		}
	}
	return out, err
}

// Lookup returns one grid cell of the study (flash cells excluded). The
// cacheless baselines carry budget "-".
func (r CacheStudyResult) Lookup(theta, budget string, s Scheme) (CacheCell, bool) {
	for _, c := range r.Cells {
		if c.Theta == theta && c.Budget == budget && c.Scheme == s {
			return c, true
		}
	}
	return CacheCell{}, false
}

// CacheWin reports whether NetRS+Cache beats plain NetRS-ToR on BOTH
// mean and p99 latency at a theta, and at which budget; RunCacheStudy
// keeps Budgets ascending, so the first winner is the smallest.
func (r CacheStudyResult) CacheWin(theta string) (budget string, ok bool) {
	base, found := r.Lookup(theta, "-", SchemeNetRSToR)
	if !found {
		return "", false
	}
	for _, bud := range r.Budgets {
		c, found := r.Lookup(theta, bud, SchemeNetRSCache)
		if !found {
			continue
		}
		if c.Merged.MeanMs < base.Merged.MeanMs && c.Merged.P99Ms < base.Merged.P99Ms {
			return bud, true
		}
	}
	return "", false
}

// cacheRow renders one cell row of the cache study table.
func cacheRow(b *strings.Builder, c CacheCell) {
	hitRate := "-"
	if c.Budget != "-" {
		hitRate = fmt.Sprintf("%.3f", c.HitRate)
	}
	fmt.Fprintf(b, "%-14s%8s%10.3f%10.3f%10.3f%10.3f%9s%8d\n",
		c.Scheme, c.Budget, c.Merged.MeanMs, c.Merged.P95Ms, c.Merged.P99Ms,
		c.Merged.P999Ms, hitRate, c.Invalidations)
}

// Table renders the cache study: one panel per Zipf theta with the four
// baselines above the budget-swept cache schemes, then the flash-crowd
// panel.
func (r CacheStudyResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CACHE — in-network hot-key cache tier at the ToR RSNodes (write fraction %.1f%%)\n",
		100*r.WriteFraction)
	header := func() {
		fmt.Fprintf(&b, "%-14s%8s%10s%10s%10s%10s%9s%8s\n",
			"Scheme", "Budget", "Mean", "P95", "P99", "P99.9", "HitRate", "Inval")
	}
	for _, th := range r.Thetas {
		fmt.Fprintf(&b, "\n[zipf theta %s] latency (ms)\n", th)
		header()
		for _, c := range r.Cells {
			if c.Theta == th {
				cacheRow(&b, c)
			}
		}
	}
	if len(r.Flash) > 0 {
		fmt.Fprintf(&b, "\n[flash-crowd scenario, theta %s] latency (ms)\n", r.Flash[0].Theta)
		header()
		for _, c := range r.Flash {
			cacheRow(&b, c)
		}
	}
	return b.String()
}

// Table renders the matrix as the four panels of the figure sweeps (Avg,
// 95th, 99th, 99.9th), selectors as columns and scenarios as rows, all in
// milliseconds.
func (r MatrixResult) Table() string {
	title := fmt.Sprintf("MATRIX — replica selector × scenario under %s", r.Scheme)
	return panelTable(title, "Scenario", r.Scenarios, r.Selectors, func(row, col int) (Summary, bool) {
		return r.Lookup(r.Selectors[col], r.Scenarios[row])
	})
}
