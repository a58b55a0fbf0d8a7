package main

import (
	"io"
	"strings"
	"testing"

	"netrs/internal/golden"
)

func TestScaledConfigs(t *testing.T) {
	for _, scale := range []string{"paper", "medium", "small"} {
		cfg, err := scaledConfig(scale)
		if err != nil {
			t.Fatalf("%s: %v", scale, err)
		}
		hosts := cfg.FatTreeK * cfg.FatTreeK * cfg.FatTreeK / 4
		if cfg.Servers+cfg.Clients > hosts {
			t.Fatalf("%s oversubscribes: %d roles on %d hosts", scale, cfg.Servers+cfg.Clients, hosts)
		}
	}
	if _, err := scaledConfig("galactic"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestRunBadArgs(t *testing.T) {
	cases := [][]string{
		{"-fig", "9"},
		{"-seeds", "x"},
		{"-scale", "bogus"},
		{"-parallel", "-1"},
		{"-cpuprofile", "/nonexistent/dir/cpu.out"},
		{"-unknown"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestRunStudyFiguresSmall runs every figure end to end at small scale
// and compares its output with testdata/golden/<golden>.txt: the four
// paper sweeps, the ablation sweeps, the resilience fault schedule, the
// adapt demand shift and controller epochs, the selector × scenario
// matrix, and the cache skew × budget grid with its flash-crowd cells.
// Three more cases pin -chart, a matrix narrowed by -selectors and
// -scenarios, and -parallel 4, whose output must match the default run's.
func TestRunStudyFiguresSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several hundred small simulations")
	}
	// small is the figure scale the goldens pin; tiny keeps the old smoke
	// runs' arguments.
	small := func(args ...string) []string {
		return append(args, "-scale", "small", "-requests", "3000", "-seeds", "1,2", "-quiet")
	}
	tiny := func(args ...string) []string {
		return append(args, "-scale", "small", "-requests", "400", "-seeds", "1", "-quiet")
	}
	cases := []struct {
		name, golden string
		args         []string
	}{
		{name: "4", args: small("-fig", "4")},
		{name: "5", args: small("-fig", "5")},
		{name: "6", args: small("-fig", "6")},
		{name: "7", args: small("-fig", "7")},
		{name: "ablation", args: small("-fig", "ablation")},
		{name: "resilience", args: small("-fig", "resilience")},
		{name: "adapt", args: small("-fig", "adapt")},
		{name: "matrix", args: small("-fig", "matrix")},
		{name: "cache", args: small("-fig", "cache")},
		{name: "6-parallel-4", golden: "6", args: small("-fig", "6", "-parallel", "4")},
		{name: "6-chart", args: tiny("-fig", "6", "-chart")},
		{name: "matrix-tars-lor", args: tiny("-fig", "matrix", "-selectors", "tars,lor", "-scenarios", "steady,flash-crowd")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			if tc.golden == "" {
				tc.golden = tc.name
			}
			golden.Check(t, tc.golden, out.String())
		})
	}
}

func TestRunMatrixBadArgs(t *testing.T) {
	cases := [][]string{
		{"-fig", "matrix", "-scale", "small", "-selectors", "bogus"},
		{"-fig", "matrix", "-scale", "small", "-scenarios", "bogus"},
		{"-fig", "matrix", "-scale", "small", "-selectors", ""},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
