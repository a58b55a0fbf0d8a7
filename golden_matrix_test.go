package netrs

// Golden selector × scenario matrix cells. These pin the bit-exact Result
// stream of a small cell set spanning both NetRS schemes, every
// non-default selector the matrix figure sweeps (tars, lor, p2c), and all
// four non-trivial built-in scenarios — at every Parallelism level AND
// every shard count. A drift in the Tars estimator, a scenario hook that
// perturbs a pre-scenario RNG draw, or a sharded-runner divergence all
// show up here as a moved line of a cell's golden file.

import "testing"

// goldenMatrixCells is the pinned cell set. Scenarios here are all
// shard-safe (no fault events, no trace replay) so every cell can also be
// checked under the sharded engine.
var goldenMatrixCells = []struct {
	scheme   Scheme
	selector string
	scenario string
}{
	{SchemeNetRSToR, "tars", "diurnal"},
	{SchemeNetRSToR, "tars", "flash-crowd"},
	{SchemeNetRSToR, "tars", "slow-rack"},
	{SchemeNetRSToR, "tars", "heterogeneous"},
	{SchemeNetRSToR, "lor", "flash-crowd"},
	{SchemeNetRSToR, "p2c", "heterogeneous"},
	{SchemeNetRSILP, "tars", "flash-crowd"},
	{SchemeNetRSILP, "lor", "heterogeneous"},
}

func goldenMatrixConfig(scheme Scheme, selector, scenario string, t *testing.T) Config {
	t.Helper()
	cfg := goldenConfig(scheme)
	cfg.OperatorAlgorithm = selector
	scn, err := ScenarioByName(scenario)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = scn
	return cfg
}

// TestGoldenMatrixDigest proves every pinned matrix cell is bit-identical
// across Parallelism 1, 2, auto and Shards 1, 2, 4.
func TestGoldenMatrixDigest(t *testing.T) {
	seeds := []uint64{1, 2}
	for _, cell := range goldenMatrixCells {
		t.Run(cell.scheme.String()+"/"+cell.selector+"/"+cell.scenario, func(t *testing.T) {
			t.Parallel()
			cfg := goldenMatrixConfig(cell.scheme, cell.selector, cell.scenario, t)
			checkRuns(t, t.Name(), cfg, seeds, append(byParallelism, variant{2, 1}, variant{4, 1})...)
		})
	}
}

// TestGoldenMatrixDigestSensitivity guards the pinned set: no two cells
// may share a golden file, or a selector that ignores its inputs would
// pass the matrix unnoticed.
func TestGoldenMatrixDigestSensitivity(t *testing.T) {
	checkDistinctGoldens(t, "TestGoldenMatrixDigest/*/*/*.txt")
}
