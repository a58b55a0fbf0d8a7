package scenario

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"netrs/internal/faults"
	"netrs/internal/workload"
)

func TestBuiltinsValidateAndResolve(t *testing.T) {
	builtins := Builtins()
	if len(builtins) < 5 {
		t.Fatalf("expected at least 5 built-ins, got %d", len(builtins))
	}
	for _, s := range builtins {
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %q fails validation: %v", s.Name, err)
		}
		got, err := ByName(s.Name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", s.Name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("ByName(%q) != Builtins() entry", s.Name)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("ByName accepted an unknown scenario")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, want := range []string{"steady", "diurnal", "flash-crowd", "slow-rack", "heterogeneous"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in %q missing from Names() %v", want, names)
		}
	}
}

func TestBuiltinsReturnFreshCopies(t *testing.T) {
	a, _ := ByName("diurnal")
	a.Diurnal.Amplitude = 0.99
	b, _ := ByName("diurnal")
	if b.Diurnal.Amplitude >= 0.99 {
		t.Fatal("mutating a ByName result leaked into the registry")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
	}{
		{"diurnal zero cycles", Scenario{Diurnal: &workload.RateModulation{Cycles: 0, Amplitude: 0.5}}},
		{"diurnal amplitude 1", Scenario{Diurnal: &workload.RateModulation{Cycles: 1, Amplitude: 1}}},
		{"diurnal negative amplitude", Scenario{Diurnal: &workload.RateModulation{Cycles: 1, Amplitude: -0.1}}},
		{"diurnal phase 1", Scenario{Diurnal: &workload.RateModulation{Cycles: 1, Amplitude: 0.5, Phase: 1}}},
		{"flash crowd at 1", Scenario{FlashCrowd: &workload.KeySpike{At: 1, Duration: 0.1, Share: 0.5}}},
		{"flash crowd zero duration", Scenario{FlashCrowd: &workload.KeySpike{At: 0.5, Duration: 0, Share: 0.5}}},
		{"flash crowd window overflow", Scenario{FlashCrowd: &workload.KeySpike{At: 0.9, Duration: 0.2, Share: 0.5}}},
		{"flash crowd zero share", Scenario{FlashCrowd: &workload.KeySpike{At: 0.1, Duration: 0.1, Share: 0}}},
		{"flash crowd share over 1", Scenario{FlashCrowd: &workload.KeySpike{At: 0.1, Duration: 0.1, Share: 1.1}}},
		{"slow rack negative", Scenario{SlowRacks: []SlowRack{{Rack: -1, ExtraMs: 1}}}},
		{"slow rack zero extra", Scenario{SlowRacks: []SlowRack{{Rack: 0, ExtraMs: 0}}}},
		{"slow rack duplicate", Scenario{SlowRacks: []SlowRack{{Rack: 2, ExtraMs: 1}, {Rack: 2, ExtraMs: 2}}}},
		{"class zero fraction", Scenario{Heterogeneous: []ServerClass{{Fraction: 0, Multiplier: 2}}}},
		{"class zero multiplier", Scenario{Heterogeneous: []ServerClass{{Fraction: 0.5, Multiplier: 0}}}},
		{"class fractions over 1", Scenario{Heterogeneous: []ServerClass{{Fraction: 0.7, Multiplier: 2}, {Fraction: 0.7, Multiplier: 0.5}}}},
		{"shaping with replay", Scenario{ReplayTracePath: "t.csv", Diurnal: &workload.RateModulation{Cycles: 1, Amplitude: 0.1}}},
		{"bad fault event", Scenario{Faults: []faults.Event{{Kind: "bogus", AtMs: 1}}}},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(); !errors.Is(err, ErrInvalidScenario) {
			t.Errorf("%s: want ErrInvalidScenario, got %v", tc.name, err)
		}
	}
	if err := (Scenario{}).Validate(); err != nil {
		t.Errorf("zero scenario must validate: %v", err)
	}
}

func TestJSONRoundTripBuiltins(t *testing.T) {
	for _, s := range Builtins() {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Name, err)
		}
		got, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", s.Name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", s.Name, got, s)
		}
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	if _, err := Parse([]byte("{nope")); err == nil {
		t.Fatal("Parse accepted malformed JSON")
	}
	if _, err := Parse([]byte(`{"diurnal":{"cycles":0}}`)); !errors.Is(err, ErrInvalidScenario) {
		t.Fatal("Parse accepted an invalid scenario")
	}
}

func TestLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scn.json")
	body := `{"name":"custom-mix","diurnal":{"cycles":2,"amplitude":0.3},"slowRacks":[{"rack":1,"extraMs":0.5}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if s.Name != "custom-mix" || s.Diurnal == nil || len(s.SlowRacks) != 1 {
		t.Fatalf("loaded scenario wrong: %+v", s)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("Load accepted a missing file")
	}
}

func TestServerMultiplier(t *testing.T) {
	s := Scenario{Heterogeneous: []ServerClass{
		{Fraction: 0.25, Multiplier: 2},
		{Fraction: 0.25, Multiplier: 0.8},
	}}
	// 8 servers: indices 0-1 slow (2×), 2-3 fast (0.8×), 4-7 nominal.
	wants := []float64{2, 2, 0.8, 0.8, 1, 1, 1, 1}
	for i, want := range wants {
		if got := s.ServerMultiplier(i, 8); got != want {
			t.Errorf("server %d: multiplier %v, want %v", i, got, want)
		}
	}
	if got := s.ServerMultiplier(-1, 8); got != 1 {
		t.Errorf("out-of-range server: %v, want 1", got)
	}
	if got := s.ServerMultiplier(0, 0); got != 1 {
		t.Errorf("zero population: %v, want 1", got)
	}
	if got := (Scenario{}).ServerMultiplier(3, 8); got != 1 {
		t.Errorf("classless scenario: %v, want 1", got)
	}
}

// TestCompileHooks: the diurnal and flash-crowd sections decode straight
// into the workload hooks the source consumes, under the scenario schema's
// JSON keys.
func TestCompileHooks(t *testing.T) {
	s, err := Parse([]byte(`{"diurnal":{"cycles":3,"amplitude":0.4,"phase":0.25},` +
		`"flashCrowd":{"atFraction":0.4,"durationFraction":0.2,"share":0.5,"key":7}}`))
	if err != nil {
		t.Fatal(err)
	}
	if m := s.Diurnal; *m != (workload.RateModulation{Cycles: 3, Amplitude: 0.4, Phase: 0.25}) {
		t.Fatalf("diurnal decoded as %+v", m)
	}
	if k := s.FlashCrowd; *k != (workload.KeySpike{At: 0.4, Duration: 0.2, Share: 0.5, Key: 7}) {
		t.Fatalf("flash crowd decoded as %+v", k)
	}
}

func TestPredicates(t *testing.T) {
	var zero Scenario
	if !zero.Empty() || zero.ShapesWorkload() {
		t.Fatal("zero-scenario predicates wrong")
	}
	if zero.Label() != "custom" {
		t.Fatalf("unnamed label %q", zero.Label())
	}
	named := Scenario{Name: "steady"}
	if named.Label() != "steady" || !named.Empty() {
		t.Fatal("named empty scenario predicates wrong")
	}
	withFaults := Scenario{Faults: []faults.Event{{Kind: faults.KindServerCrash, AtMs: 5, Server: 0}}}
	if withFaults.Empty() || withFaults.ShapesWorkload() {
		t.Fatal("fault scenario must be non-empty and leave the workload alone")
	}
	withTrace := Scenario{ReplayTracePath: "t.csv"}
	if withTrace.Empty() || withTrace.ShapesWorkload() {
		t.Fatal("trace scenario must be non-empty and leave the synthetic workload alone")
	}
	shaped := Scenario{Diurnal: &workload.RateModulation{Cycles: 1, Amplitude: 0.1}}
	if !shaped.ShapesWorkload() || shaped.Empty() {
		t.Fatal("diurnal scenario predicates wrong")
	}
}
