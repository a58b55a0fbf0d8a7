package netrs

// Golden runs of the study layer. The per-run goldens pin what one
// simulation produces; these pin what the studies built on top of it make
// of those runs: which cells exist, in what order, which seeds each cell
// merges, every per-seed Result, and the exact text of the rendered
// table. Each study runs one tiny instance, and its golden file holds the
// golden.Dump of the whole study result followed by its Table() text. A
// golden file must never change without a deliberate, documented change
// to a study's cell set or table layout.

import (
	"testing"

	"netrs/internal/golden"
)

// studyConfig is goldenConfig shrunk so every study runs in about a second.
func studyConfig(scheme Scheme) Config {
	cfg := goldenConfig(scheme)
	cfg.Requests = 800
	return cfg
}

var goldenStudies = []struct {
	name string
	run  func(RunOptions) (string, error)
}{
	{"sweep", func(opts RunOptions) (string, error) {
		sw := Figure6()
		sw.Points = []SweepPoint{sw.Points[1], sw.Points[3]}
		sw.Schemes = []Scheme{SchemeCliRS, SchemeNetRSILP}
		res, err := RunSweep(studyConfig(SchemeCliRS), sw, []uint64{1, 2}, nil, opts)
		return golden.Dump(res) + res.Table(), err
	}},
	{"ablation", func(opts RunOptions) (string, error) {
		var out string
		for _, id := range []string{"ablation-ratecontrol", "ablation-cancellation"} {
			sw, err := FigureByID(id)
			if err != nil {
				return "", err
			}
			res, err := RunSweep(studyConfig(SchemeCliRS), sw, []uint64{1, 2}, nil, opts)
			if err != nil {
				return "", err
			}
			out += golden.Dump(res) + res.Table()
		}
		return out, nil
	}},
	{"matrix", func(opts RunOptions) (string, error) {
		var scns []Scenario
		for _, name := range []string{"steady", "flash-crowd"} {
			scn, err := ScenarioByName(name)
			if err != nil {
				return "", err
			}
			scns = append(scns, scn)
		}
		res, err := RunMatrix(studyConfig(SchemeNetRSToR), []string{"c3", "tars"}, scns, []uint64{1, 2}, opts)
		return golden.Dump(res) + res.Table(), err
	}},
	{"cache", func(opts RunOptions) (string, error) {
		cfg := studyConfig(SchemeNetRSToR)
		cfg.WriteFraction = 0.05
		res, err := RunCacheStudy(cfg, []float64{0.99}, []int64{8 << 10, 64 << 10}, []uint64{1, 2}, opts)
		return golden.Dump(res) + res.Table(), err
	}},
	{"resilience", func(opts RunOptions) (string, error) {
		res, err := RunResilience(studyConfig(SchemeCliRS), 0.35, 0.65, 25*Millisecond, opts)
		return golden.Dump(res) + res.Table(), err
	}},
	{"adapt", func(opts RunOptions) (string, error) {
		cfg := studyConfig(SchemeCliRS)
		cfg.Fabric.AccelService = 150 * Microsecond
		res, err := RunAdapt(cfg, 0.45, 20*Millisecond, 20*Millisecond, opts)
		return golden.Dump(res) + res.Table(), err
	}},
	{"repeated", func(opts RunOptions) (string, error) {
		results, merged, err := RunRepeated(studyConfig(SchemeNetRSToR), []uint64{3, 1, 2}, opts)
		return golden.Dump(repeatedRun{results, merged}) + merged.String() + "\n", err
	}},
}

// TestGoldenStudyDigest proves every study's result and table are
// bit-identical to its golden file at Parallelism 1 and 4.
func TestGoldenStudyDigest(t *testing.T) {
	for _, study := range goldenStudies {
		t.Run(study.name, func(t *testing.T) {
			t.Parallel()
			want, err := study.run(RunOptions{Parallelism: 1})
			if err != nil {
				t.Fatalf("parallelism 1: %v", err)
			}
			golden.Check(t, t.Name(), want)
			got, err := study.run(RunOptions{Parallelism: 4})
			if err != nil {
				t.Fatalf("parallelism 4: %v", err)
			}
			if got != want {
				t.Errorf("parallelism 4 differs from parallelism 1:\n%s", golden.Diff(want, got))
			}
		})
	}
}

// TestGoldenStudyDigestSensitivity guards the pinned set: no two studies
// may share a golden file, or a study that ignores its inputs would pass.
func TestGoldenStudyDigestSensitivity(t *testing.T) {
	checkDistinctGoldens(t, "TestGoldenStudyDigest/*.txt")
}
