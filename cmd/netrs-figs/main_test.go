package main

import (
	"io"
	"os"
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

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	return string(out)
}

// TestEnvRequestsDoesNotOverrideFlag pins -requests as the one request
// knob: a set NETRS_REQUESTS leaves the run unchanged.
func TestEnvRequestsDoesNotOverrideFlag(t *testing.T) {
	args := []string{"-fig", "6", "-requests", "400", "-seeds", "1", "-scale", "small", "-quiet"}
	t.Setenv("NETRS_REQUESTS", "")
	want := captureStdout(t, func() error { return run(args) })
	t.Setenv("NETRS_REQUESTS", "800")
	if got := captureStdout(t, func() error { return run(args) }); got != want {
		t.Fatalf("NETRS_REQUESTS=800 changed the -requests 400 run:\n%s\nwant:\n%s", got, want)
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
// controller epochs, and the cache skew × budget grid with its flash-crowd
// cells.
func TestRunStudyFiguresSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs about 40 small simulations")
	}
	for _, fig := range []string{"resilience", "adapt", "cache"} {
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
