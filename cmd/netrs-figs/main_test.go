package main

import (
	"testing"
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

func TestRunOneFigureSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 small simulations")
	}
	err := run([]string{
		"-fig", "6", "-requests", "400", "-seeds", "1", "-scale", "small", "-quiet", "-chart",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunBadArgs(t *testing.T) {
	cases := [][]string{
		{"-fig", "9"},
		{"-seeds", "x"},
		{"-scale", "bogus"},
		{"-unknown"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestParallelFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 small simulations")
	}
	err := run([]string{
		"-fig", "6", "-requests", "400", "-seeds", "1,2", "-scale", "small", "-quiet", "-parallel", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunMatrixSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 4 small simulations")
	}
	err := run([]string{
		"-fig", "matrix", "-requests", "400", "-seeds", "1", "-scale", "small", "-quiet",
		"-selectors", "tars,lor", "-scenarios", "steady,flash-crowd",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunStudyFiguresSmall runs the remaining study figures end to end at
// tiny scale: the resilience fault schedule, the adapt demand shift and
// controller epochs, the cache skew × budget grid with its flash-crowd
// cells, and the five ablation sweeps.
func TestRunStudyFiguresSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs about 50 small simulations")
	}
	for _, fig := range []string{"resilience", "adapt", "cache", "ablation"} {
		t.Run(fig, func(t *testing.T) {
			err := run([]string{"-fig", fig, "-scale", "small", "-requests", "400", "-seeds", "1", "-quiet"})
			if err != nil {
				t.Fatal(err)
			}
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
		if err := run(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestEnvParallelOverride(t *testing.T) {
	t.Setenv("NETRS_PARALLEL", "zero")
	if err := run([]string{"-fig", "4", "-scale", "small", "-quiet"}); err == nil {
		t.Fatal("bad NETRS_PARALLEL accepted")
	}
}
