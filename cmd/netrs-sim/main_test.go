package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"netrs"
)

func tinyArgs(extra ...string) []string {
	base := []string{
		"-k", "8", "-servers", "16", "-clients", "24",
		"-generators", "12", "-requests", "500",
	}
	return append(base, extra...)
}

func TestRunEachScheme(t *testing.T) {
	for _, scheme := range []string{"CliRS", "CliRS-R95", "NetRS-ToR", "NetRS-ILP"} {
		if err := run(tinyArgs("-scheme", scheme)); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	if err := run(tinyArgs("-json")); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-scheme", "Bogus"}); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	if err := run([]string{"-nonexistent-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run(tinyArgs("-requests", "0")); err == nil {
		t.Fatal("zero requests accepted")
	}
	// The retired recorder cap is an unknown flag.
	if err := run(tinyArgs("-stats-cap", "100")); err == nil {
		t.Fatal("retired -stats-cap accepted")
	}
}

func TestRunRepeatedSeeds(t *testing.T) {
	if err := run(tinyArgs("-seeds", "1,2", "-parallel", "2")); err != nil {
		t.Fatal(err)
	}
	if err := run(tinyArgs("-seeds", "1,2", "-json")); err != nil {
		t.Fatal(err)
	}
	if err := run(tinyArgs("-seeds", "nope")); err == nil {
		t.Fatal("bad seed list accepted")
	}
	if err := run(tinyArgs("-seeds", "1,2", "-trace", "/tmp/should-not-happen.csv")); err == nil {
		t.Fatal("trace with repeated seeds accepted")
	}
}

func TestNegativeParallelRejected(t *testing.T) {
	if err := run(tinyArgs("-parallel", "-1")); err == nil {
		t.Fatal("negative -parallel accepted")
	}
}

func TestRunConfigRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := run(tinyArgs("-save-config", path)); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", "/does/not/exist.json"}); err == nil {
		t.Fatal("missing config accepted")
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

// TestShiftAtHelp pins -shift-at's help text to workload.Source's
// emission-keyed shift: it lands once that fraction of the run's requests
// has been emitted, not completed.
func TestShiftAtHelp(t *testing.T) {
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	runErr := run([]string{"-h"})
	w.Close()
	os.Stderr = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runErr, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", runErr)
	}
	usage := string(out)
	i := strings.Index(usage, "-shift-at")
	if i < 0 {
		t.Fatalf("usage lacks -shift-at:\n%s", usage)
	}
	help := usage[i:]
	if j := strings.Index(help, "\n  -"); j >= 0 {
		help = help[:j]
	}
	if !strings.Contains(help, "emitted") || strings.Contains(help, "completion") {
		t.Errorf("-shift-at help = %q, want the emitted-requests fraction", help)
	}
}

func TestListSelectors(t *testing.T) {
	out := captureStdout(t, func() error { return run([]string{"-list-selectors"}) })
	lines := strings.Fields(out)
	if !sort.StringsAreSorted(lines) {
		t.Fatalf("-list-selectors output not sorted:\n%s", out)
	}
	want := map[string]bool{"c3": false, "tars": false, "lor": false, "p2c": false}
	for _, l := range lines {
		if _, ok := want[l]; ok {
			want[l] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("selector %q missing from -list-selectors:\n%s", name, out)
		}
	}
}

func TestListScenarios(t *testing.T) {
	out := captureStdout(t, func() error { return run([]string{"-list-scenarios"}) })
	lines := strings.Fields(out)
	if !sort.StringsAreSorted(lines) {
		t.Fatalf("-list-scenarios output not sorted:\n%s", out)
	}
	want := map[string]bool{"steady": false, "diurnal": false, "flash-crowd": false, "slow-rack": false, "heterogeneous": false}
	for _, l := range lines {
		if _, ok := want[l]; ok {
			want[l] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("scenario %q missing from -list-scenarios:\n%s", name, out)
		}
	}
}

func TestListFlagsRejectRunFlags(t *testing.T) {
	cases := [][]string{
		{"-list-selectors", "-requests", "500"},
		{"-list-selectors", "-scheme", "NetRS-ToR"},
		{"-list-scenarios", "-seeds", "1,2"},
		{"-list-scenarios", "-json"},
		tinyArgs("-list-selectors"),
		tinyArgs("-list-scenarios"),
	}
	for _, args := range cases {
		err := run(args)
		if err == nil {
			t.Fatalf("%v: run flags alongside a discovery flag accepted", args)
		}
		if !strings.Contains(err.Error(), "print a catalog and exit") {
			t.Fatalf("%v: want a usage error naming the conflict, got: %v", args, err)
		}
	}
	// The two discovery flags combine with each other just fine.
	if err := run([]string{"-list-selectors", "-list-scenarios"}); err != nil {
		t.Fatalf("discovery flags alone rejected: %v", err)
	}
}

func TestRunCacheSchemes(t *testing.T) {
	for _, scheme := range []string{"NetCache", "NetRS+Cache"} {
		out := captureStdout(t, func() error {
			return run(tinyArgs("-scheme", scheme, "-cache-bytes", "65536", "-write-fraction", "0.05"))
		})
		if !strings.Contains(out, "cache") {
			t.Fatalf("%s: no cache line in output:\n%s", scheme, out)
		}
	}
	if err := run(tinyArgs("-scheme", "CliRS", "-cache-bytes", "65536")); err == nil {
		t.Fatal("cache budget on a cacheless scheme accepted")
	}
	if err := run(tinyArgs("-scheme", "NetCache", "-write-fraction", "1.5")); err == nil {
		t.Fatal("write fraction above 1 accepted")
	}
}

func TestListFlagsStableAcrossRuns(t *testing.T) {
	a := captureStdout(t, func() error { return run([]string{"-list-selectors", "-list-scenarios"}) })
	b := captureStdout(t, func() error { return run([]string{"-list-selectors", "-list-scenarios"}) })
	if a != b {
		t.Fatalf("discovery output unstable:\n%q\nvs\n%q", a, b)
	}
}

func TestRunScenarioFlag(t *testing.T) {
	for _, scn := range []string{"steady", "flash-crowd", "heterogeneous"} {
		if err := run(tinyArgs("-scheme", "NetRS-ToR", "-scenario", scn)); err != nil {
			t.Fatalf("-scenario %s: %v", scn, err)
		}
	}
	if err := run(tinyArgs("-scenario", "bogus")); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestConfigTimelineWithScenarioFaults drives the resilience path at two
// shards: the timeline comes from the -config file's timelineBucketNs and
// the faults from a -scenario file, and -trace writes one latency per
// measured request. The fault on a missing server prints its error line.
func TestConfigTimelineWithScenarioFaults(t *testing.T) {
	dir := t.TempDir()
	cfg := netrs.DefaultConfig()
	cfg.FatTreeK, cfg.Servers, cfg.Clients, cfg.Generators, cfg.Requests = 8, 16, 24, 12, 500
	cfg.Shards = 2
	cfg.TimelineBucket = 10 * netrs.Millisecond
	cfgPath := filepath.Join(dir, "cfg.json")
	if err := netrs.SaveConfig(cfgPath, cfg); err != nil {
		t.Fatal(err)
	}
	scn := filepath.Join(dir, "scn.json")
	body := `{"name":"f","faults":[{"kind":"server-crash","atMs":5,"server":1,"durationMs":10},{"kind":"server-crash","atMs":6,"server":99}]}`
	if err := os.WriteFile(scn, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "trace.csv")
	out := captureStdout(t, func() error { return run([]string{"-config", cfgPath, "-scenario", scn, "-trace", trace}) })
	if !strings.Contains(out, "\ntimeline\n") || !strings.Contains(out, "fault error fault server-crash(server=99)") {
		t.Fatalf("output lacks the timeline or the fault error:\n%s", out)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 1+cfg.Requests {
		t.Fatalf("trace has %d lines, want a header and %d latencies", lines, cfg.Requests)
	}
}

func TestRunScenarioFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scn.json")
	body := `{"name":"mix","diurnal":{"cycles":2,"amplitude":0.3},"slowRacks":[{"rack":0,"extraMs":0.2}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(tinyArgs("-scheme", "NetRS-ToR", "-scenario", path)); err != nil {
		t.Fatal(err)
	}
}
