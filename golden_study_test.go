package netrs

// Golden digests of the study layer. The per-run goldens pin what one
// simulation produces; these pin what the studies built on top of it make
// of those runs: which cells exist, in what order, which seeds each cell
// merges, and the exact text of the rendered table. Each study runs one
// tiny instance, every cell's per-seed Runs are hashed with resultDigest,
// and the study's Table() text is folded in after them.
//
// The constants were captured before the studies were folded onto one
// grid executor; they must never change without a deliberate, documented
// change to a study's cell set or table layout.

import (
	"hash/fnv"
	"testing"
)

// studyConfig is goldenConfig shrunk so every study runs in about a second.
func studyConfig(scheme Scheme) Config {
	cfg := goldenConfig(scheme)
	cfg.Requests = 800
	return cfg
}

// studyDigest folds per-cell digests, in order, and a table's text into one
// value.
func studyDigest(cells []uint64, table string) uint64 {
	h := fnv.New64a()
	for _, d := range cells {
		mix64(h, d)
	}
	h.Write([]byte(table))
	return h.Sum64()
}

// runDigest digests one unrepeated run as a one-seed cell.
func runDigest(res Result) uint64 { return resultDigest([]Result{res}, res.Summary) }

var goldenStudies = []struct {
	name   string
	run    func(RunOptions) (uint64, error)
	digest uint64
}{
	{"sweep", func(opts RunOptions) (uint64, error) {
		sw := Figure6()
		sw.Points = []SweepPoint{sw.Points[1], sw.Points[3]}
		sw.Schemes = []Scheme{SchemeCliRS, SchemeNetRSILP}
		res, err := RunSweepWith(studyConfig(SchemeCliRS), sw, []uint64{1, 2}, nil, opts)
		var cells []uint64
		for _, c := range res.Cells {
			cells = append(cells, resultDigest(c.Runs, c.Merged))
		}
		return studyDigest(cells, res.Table()), err
	}, 0x34889c1989da1330},
	{"ablation", func(opts RunOptions) (uint64, error) {
		var cells []uint64
		var tables string
		for _, id := range []string{"ablation-ratecontrol", "ablation-cancellation"} {
			sw, err := FigureByID(id)
			if err != nil {
				return 0, err
			}
			res, err := RunSweepWith(studyConfig(SchemeCliRS), sw, []uint64{1, 2}, nil, opts)
			if err != nil {
				return 0, err
			}
			for _, c := range res.Cells {
				cells = append(cells, resultDigest(c.Runs, c.Merged))
			}
			tables += res.Table()
		}
		return studyDigest(cells, tables), nil
	}, 0x6df26b60c83a4e0d}, // re-pinned with goldenDigests' CliRS-R95 row
	{"matrix", func(opts RunOptions) (uint64, error) {
		var scns []Scenario
		for _, name := range []string{"steady", "flash-crowd"} {
			scn, err := ScenarioByName(name)
			if err != nil {
				return 0, err
			}
			scns = append(scns, scn)
		}
		res, err := RunMatrix(studyConfig(SchemeNetRSToR), []string{"c3", "tars"}, scns, []uint64{1, 2}, opts)
		var cells []uint64
		for _, c := range res.Cells {
			cells = append(cells, resultDigest(c.Runs, c.Merged))
		}
		return studyDigest(cells, res.Table()), err
	}, 0xacbcd4a51f5d762d},
	{"cache", func(opts RunOptions) (uint64, error) {
		cfg := studyConfig(SchemeNetRSToR)
		cfg.WriteFraction = 0.05
		res, err := RunCacheStudy(cfg, []float64{0.99}, []int64{8 << 10, 64 << 10}, []uint64{1, 2}, opts)
		var cells []uint64
		for _, c := range append(res.Cells, res.Flash...) {
			cells = append(cells, resultDigest(c.Runs, c.Merged), c.Invalidations, uint64(1e9*c.HitRate))
		}
		return studyDigest(cells, res.Table()), err
	}, 0x7d5e5064d782a83d},
	{"resilience", func(opts RunOptions) (uint64, error) {
		res, err := RunResilience(studyConfig(SchemeCliRS), 0.35, 0.65, 25*Millisecond, opts)
		var cells []uint64
		for _, r := range res.Runs {
			cells = append(cells, runDigest(r.Result))
		}
		return studyDigest(cells, res.Table()), err
	}, 0x4688d6fd86a1fa05},
	{"adapt", func(opts RunOptions) (uint64, error) {
		cfg := studyConfig(SchemeCliRS)
		cfg.Fabric.AccelService = 150 * Microsecond
		res, err := RunAdapt(cfg, 0.45, 20*Millisecond, 20*Millisecond, opts)
		return studyDigest([]uint64{runDigest(res.Static), runDigest(res.Epochs)}, res.Table()), err
	}, 0xcb717c13aa362652},
	{"repeated", func(opts RunOptions) (uint64, error) {
		results, merged, err := RunRepeatedWith(studyConfig(SchemeNetRSToR), []uint64{3, 1, 2}, opts)
		return studyDigest([]uint64{resultDigest(results, merged)}, merged.String()), err
	}, 0x50d5b7254e415e62},
}

// TestGoldenStudyDigest proves every study's cells and table are
// bit-identical to the pinned values at Parallelism 1 and 4.
func TestGoldenStudyDigest(t *testing.T) {
	for _, study := range goldenStudies {
		study := study
		t.Run(study.name, func(t *testing.T) {
			t.Parallel()
			for _, par := range []int{1, 4} {
				got, err := study.run(RunOptions{Parallelism: par})
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if got != study.digest {
					t.Errorf("parallelism %d: digest = %#016x, want %#016x", par, got, study.digest)
				}
			}
		})
	}
}

// TestGoldenStudyDigestSensitivity guards the pinned set: two studies must
// not hash identically, or a digest that ignores its inputs would pass.
func TestGoldenStudyDigestSensitivity(t *testing.T) {
	seen := map[uint64]string{}
	for _, study := range goldenStudies {
		if prev, dup := seen[study.digest]; dup {
			t.Errorf("studies %s and %s share digest %#016x", prev, study.name, study.digest)
		}
		seen[study.digest] = study.name
	}
}
