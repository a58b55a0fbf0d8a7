package netrs

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"netrs/internal/placement"
)

// TestConfigJSONRoundTrip sets every Config field to a non-default value
// and requires MarshalConfig/UnmarshalConfig to reproduce it exactly: a
// field the codec drops would make a saved config replay a different
// experiment.
func TestConfigJSONRoundTrip(t *testing.T) {
	in := DefaultConfig()
	in.Seed = 42
	in.FatTreeK = 8
	in.Servers = 20
	in.Parallelism = 2
	in.MeanServiceTime = Time(2.5 * float64(Millisecond))
	in.FluctuationInterval = 20 * Millisecond
	in.FluctuationRange = 2
	in.Replication = 2
	in.VNodes = 8
	in.Keys = 1 << 20
	in.ZipfTheta = 0.9
	in.Clients = 40
	in.Generators = 10
	in.DemandSkew = 0.8
	in.HotClientFraction = 0.3
	in.DemandShiftAt = 0.45
	in.DemandShiftFraction = 0.75
	in.Utilization = 0.7
	in.Requests = 777
	in.WarmupFraction = 0.1
	in.Scheme = SchemeNetRSCache
	in.RateControl = false
	in.WriteFraction = 0.05
	in.CacheBytes = 64 << 10
	in.CacheAdmitAfter = 2
	in.CacheItemMinBytes = 64
	in.CacheItemMaxBytes = 1024
	in.OperatorAlgorithm = "lor"
	in.Fabric.LinkLatency = 20 * Microsecond
	in.Fabric.AccelRTT = 3 * Microsecond
	in.Fabric.AccelService = 7 * Microsecond
	in.Fabric.AccelCores = 2
	in.AccelMaxUtilization = 0.6
	in.ExtraHopBudgetFraction = 0.3
	in.RackLevelGroups = false
	in.GroupMaxHosts = 3
	in.PlacementMethod = placement.MethodHeuristic
	in.CancelDuplicates = true
	in.TimelineBucket = 50 * Millisecond
	in.ControllerInterval = 100 * Millisecond
	in.KeepLatencyTrace = true
	scn, err := ScenarioByName("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	scn.Faults = []FaultEvent{
		{Kind: FaultRSNodeCrash, AtMs: 400, RSNode: FaultTargetBusiest, DurationMs: 300},
		{Kind: FaultServerSlowdown, AtFraction: 0.25, Server: 3, Multiplier: 4},
	}
	in.Scenario = scn
	in.Shards = 2
	requireNonDefault(t, reflect.ValueOf(in), reflect.ValueOf(DefaultConfig()), "")

	data, err := MarshalConfig(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip differs:\n in %+v\nout %+v", in, out)
	}
	// The serialized form uses nanosecond keys, nests the fabric, and
	// names the scheme and the method.
	for _, key := range []string{
		`"meanServiceTimeNs": 2500000`, `"timelineBucketNs": 50000000`, `"fabric": {`,
		`"linkLatencyNs": 20000`, `"scheme": "NetRS+Cache"`, `"placementMethod": "heuristic"`, `"faults": [`,
	} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("serialized config missing %q:\n%s", key, data)
		}
	}
}

// requireNonDefault fails when a field of got, or of its nested Fabric
// config, still holds the default in def, so a Config field added later
// cannot slip past the round trip untested.
func requireNonDefault(t *testing.T, got, def reflect.Value, prefix string) {
	t.Helper()
	for i := 0; i < got.NumField(); i++ {
		name := prefix + got.Type().Field(i).Name
		if name == "Fabric" {
			requireNonDefault(t, got.Field(i), def.Field(i), name+".")
			continue
		}
		if reflect.DeepEqual(got.Field(i).Interface(), def.Field(i).Interface()) {
			t.Errorf("%s is left at its default", name)
		}
	}
}

// TestConfigDurationsRoundTripExactly: durations are integer nanoseconds
// on disk, so values with no exact microsecond or millisecond form load
// back unchanged.
func TestConfigDurationsRoundTripExactly(t *testing.T) {
	in := DefaultConfig()
	in.MeanServiceTime = 4_096_083
	in.FluctuationInterval = 49_999_999
	in.Fabric.LinkLatency = 30_001
	in.Fabric.AccelRTT = 2_499
	in.Fabric.AccelService = 5_003
	in.TimelineBucket = 25_000_007
	in.ControllerInterval = 99_999_999
	data, err := MarshalConfig(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip differs:\n in %+v\nout %+v", in, out)
	}
}

// TestUnmarshalConfigPartialKeepsDefaults: a config file that names only
// some keys, nested fabric keys included, keeps DefaultConfig's values for
// the rest.
func TestUnmarshalConfigPartialKeepsDefaults(t *testing.T) {
	got, err := UnmarshalConfig([]byte(`{"scheme": "NetRS-ILP", "requests": 500, "fabric": {"accelCores": 2}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	want.Scheme = SchemeNetRSILP
	want.Requests = 500
	want.Fabric.AccelCores = 2
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("partial config = %+v, want %+v", got, want)
	}
}

func TestConfigFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.json")
	in := DefaultConfig()
	in.Scheme = SchemeCliRSR95
	in.Requests = 777
	if err := SaveConfig(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatal("file round trip differs")
	}
}

func TestUnmarshalConfigErrors(t *testing.T) {
	if _, err := UnmarshalConfig([]byte("{not json")); err == nil {
		t.Fatal("bad json accepted")
	}
	if _, err := UnmarshalConfig([]byte(`{"scheme":"Bogus"}`)); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	// Retired and misspelled keys fail loudly rather than being dropped.
	for _, key := range []string{"failRSNodeAt", "replayTracePath", "faults", "meanServiceTimeUs", "statsSampleCap", "redundantPercentile", "sheme"} {
		if _, err := UnmarshalConfig([]byte(`{"scheme":"CliRS","` + key + `":1}`)); err == nil {
			t.Fatalf("unknown key %q accepted", key)
		}
	}
	if _, err := UnmarshalConfig([]byte(`{"scheme":"CliRS","placementMethod":"simplex"}`)); err == nil {
		t.Fatal("unknown placement method accepted")
	}
	if _, err := UnmarshalConfig([]byte(`{"scheme":"CliRS"} {}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	if _, err := LoadConfig("/nonexistent/netrs.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSweepChart(t *testing.T) {
	base := testConfig()
	sw := Sweep{
		ID:    "mini",
		Title: "chart sweep",
		XAxis: "Utilization",
		Points: []SweepPoint{
			{X: "50%", Mutate: func(c *Config) { c.Utilization = 0.5 }},
		},
		Schemes: []Scheme{SchemeCliRS, SchemeNetRSToR},
	}
	res, err := RunSweep(base, sw, []uint64{1}, nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chart, err := res.Chart("Avg.")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MINI", "CliRS", "NetRS-ToR", "█", "Utilization 50%"} {
		if !strings.Contains(chart, want) {
			t.Fatalf("chart missing %q:\n%s", want, chart)
		}
	}
	if _, err := res.Chart("nope"); err == nil {
		t.Fatal("unknown metric accepted")
	}
}
