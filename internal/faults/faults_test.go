package faults

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"netrs/internal/sim"
)

// fakeActions records every call in order and can be told to fail.
type fakeActions struct {
	calls   []string
	failAll bool
}

func (f *fakeActions) note(format string, args ...any) error {
	f.calls = append(f.calls, fmt.Sprintf(format, args...))
	if f.failAll {
		return errors.New("boom")
	}
	return nil
}

func (f *fakeActions) CrashRSNode(target string) (uint16, error) {
	return 7, f.note("crash-rsnode(%s)", target)
}

func (f *fakeActions) RecoverRSNode(target string) (uint16, error) {
	return 7, f.note("recover-rsnode(%s)", target)
}

func (f *fakeActions) SetServerSlowdown(server int, mult float64) error {
	return f.note("slowdown(%d,x%g)", server, mult)
}

func (f *fakeActions) CrashServer(server int) error {
	return f.note("crash-server(%d)", server)
}

func (f *fakeActions) RestartServer(server int) error {
	return f.note("restart-server(%d)", server)
}

func (f *fakeActions) SetRackLinkDelay(rack int, extra sim.Time) error {
	return f.note("link-delay(%d,%v)", rack, extra)
}

func TestEventValidation(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		ok   bool
	}{
		{"crash busiest by fraction", Event{Kind: KindRSNodeCrash, AtFraction: 0.5, RSNode: TargetBusiest}, true},
		{"crash numeric by time", Event{Kind: KindRSNodeCrash, AtMs: 10, RSNode: "12"}, true},
		{"recover failed", Event{Kind: KindRSNodeRecover, AtMs: 20, RSNode: TargetFailed}, true},
		{"slowdown", Event{Kind: KindServerSlowdown, AtMs: 5, Server: 3, Multiplier: 4}, true},
		{"server crash with duration", Event{Kind: KindServerCrash, AtMs: 5, Server: 0, DurationMs: 10}, true},
		{"link delay", Event{Kind: KindLinkDelay, AtMs: 5, Rack: 1, ExtraMs: 0.2}, true},

		{"no position", Event{Kind: KindRSNodeCrash, RSNode: TargetBusiest}, false},
		{"both positions", Event{Kind: KindRSNodeCrash, AtMs: 1, AtFraction: 0.5, RSNode: TargetBusiest}, false},
		{"fraction at 1", Event{Kind: KindRSNodeCrash, AtFraction: 1, RSNode: TargetBusiest}, false},
		{"negative fraction", Event{Kind: KindRSNodeCrash, AtFraction: -0.5, RSNode: TargetBusiest}, false},
		{"unknown kind", Event{Kind: "nope", AtMs: 1}, false},
		{"crash targeting failed", Event{Kind: KindRSNodeCrash, AtMs: 1, RSNode: TargetFailed}, false},
		{"recover targeting busiest", Event{Kind: KindRSNodeRecover, AtMs: 1, RSNode: TargetBusiest}, false},
		{"recover with duration", Event{Kind: KindRSNodeRecover, AtMs: 1, RSNode: TargetFailed, DurationMs: 5}, false},
		{"restart with duration", Event{Kind: KindServerRestart, AtMs: 1, Server: 0, DurationMs: 5}, false},
		{"rsnode no target", Event{Kind: KindRSNodeCrash, AtMs: 1}, false},
		{"rsnode bad target", Event{Kind: KindRSNodeCrash, AtMs: 1, RSNode: "op-3"}, false},
		{"rsnode zero id", Event{Kind: KindRSNodeCrash, AtMs: 1, RSNode: "0"}, false},
		{"slowdown zero multiplier", Event{Kind: KindServerSlowdown, AtMs: 1, Server: 0}, false},
		{"negative server", Event{Kind: KindServerCrash, AtMs: 1, Server: -1}, false},
		{"negative rack", Event{Kind: KindLinkDelay, AtMs: 1, Rack: -1}, false},
		{"negative extra", Event{Kind: KindLinkDelay, AtMs: 1, Rack: 0, ExtraMs: -1}, false},
		{"negative duration", Event{Kind: KindServerCrash, AtMs: 1, Server: 0, DurationMs: -1}, false},
	}
	for _, tc := range cases {
		err := tc.ev.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: validation passed, want error", tc.name)
			} else if !errors.Is(err, ErrInvalidSchedule) {
				t.Errorf("%s: error %v not wrapped in ErrInvalidSchedule", tc.name, err)
			}
		}
	}
}

func TestParseScheduleRoundTrip(t *testing.T) {
	data := []byte(`{
		"bucketMs": 50,
		"events": [
			{"kind": "rsnode-crash", "atFraction": 0.35, "rsnode": "busiest"},
			{"kind": "rsnode-recover", "atFraction": 0.65, "rsnode": "failed"},
			{"kind": "server-slowdown", "atMs": 12.5, "server": 2, "multiplier": 4, "durationMs": 40},
			{"kind": "link-delay", "atMs": 30, "rack": 1, "extraMs": 0.25}
		]
	}`)
	s, err := ParseSchedule(data)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if len(s.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(s.Events))
	}
	if s.BucketWidth(0) != 50*sim.Millisecond {
		t.Errorf("BucketWidth = %v, want 50ms", s.BucketWidth(0))
	}
	if got := (Schedule{}).BucketWidth(10 * sim.Millisecond); got != 10*sim.Millisecond {
		t.Errorf("default BucketWidth = %v, want 10ms", got)
	}

	if _, err := ParseSchedule([]byte(`{"events": []}`)); !errors.Is(err, ErrInvalidSchedule) {
		t.Errorf("empty schedule: err = %v, want ErrInvalidSchedule", err)
	}
	if _, err := ParseSchedule([]byte(`{not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ParseSchedule([]byte(`{"bucketMs": -1, "events": [{"kind": "server-crash", "atMs": 1}]}`)); !errors.Is(err, ErrInvalidSchedule) {
		t.Errorf("negative bucketMs: err = %v, want ErrInvalidSchedule", err)
	}
}

func TestLoadSchedule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, []byte(`{"events": [{"kind": "server-crash", "atMs": 1, "server": 0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSchedule(path)
	if err != nil {
		t.Fatalf("LoadSchedule: %v", err)
	}
	if len(s.Events) != 1 || s.Events[0].Kind != KindServerCrash {
		t.Fatalf("unexpected schedule %+v", s)
	}
	if _, err := LoadSchedule(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestInjectorTimedEventsAndInverses(t *testing.T) {
	eng := sim.NewEngine()
	acts := &fakeActions{}
	events := []Event{
		{Kind: KindServerSlowdown, AtMs: 10, Server: 2, Multiplier: 4, DurationMs: 5},
		{Kind: KindServerCrash, AtMs: 20, Server: 1, DurationMs: 5},
		{Kind: KindLinkDelay, AtMs: 30, Rack: 1, ExtraMs: 0.5, DurationMs: 5},
		{Kind: KindRSNodeCrash, AtMs: 40, RSNode: TargetBusiest, DurationMs: 5},
	}
	in, err := NewInjector(eng, acts, 1000, events, nil)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	if err := in.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	eng.Run()
	want := []string{
		"slowdown(2,x4)",
		"slowdown(2,x1)", // inverse at 15ms
		"crash-server(1)",
		"restart-server(1)", // inverse at 25ms
		"link-delay(1,0.500ms)",
		"link-delay(1,0.000ms)", // inverse at 35ms
		"crash-rsnode(busiest)",
		"recover-rsnode(7)", // inverse recovers the resolved ID
	}
	if len(acts.calls) != len(want) {
		t.Fatalf("calls = %v, want %v", acts.calls, want)
	}
	for i := range want {
		if acts.calls[i] != want[i] {
			t.Errorf("call %d = %q, want %q", i, acts.calls[i], want[i])
		}
	}
	if in.Fired() != len(want) {
		t.Errorf("Fired = %d, want %d", in.Fired(), len(want))
	}
}

func TestInjectorFractionThresholds(t *testing.T) {
	eng := sim.NewEngine()
	acts := &fakeActions{}
	events := []Event{
		// Declared out of order: must fire sorted by completion count.
		{Kind: KindRSNodeRecover, AtFraction: 0.6, RSNode: TargetFailed},
		{Kind: KindRSNodeCrash, AtFraction: 0.3, RSNode: TargetBusiest},
		// Tiny fraction still clamps up to the first completion.
		{Kind: KindServerCrash, AtFraction: 0.0001, Server: 0},
	}
	in, err := NewInjector(eng, acts, 10, events, nil)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	if !in.Pending() {
		t.Fatal("Pending false before the first completion")
	}
	for completed := 1; completed <= 10; completed++ {
		in.OnCompletion(completed)
		// The last threshold, 0.6 of 10, fires at the sixth completion.
		if got, want := in.Pending(), completed < 6; got != want {
			t.Fatalf("Pending = %v after completion %d, want %v", got, completed, want)
		}
	}
	want := []string{"crash-server(0)", "crash-rsnode(busiest)", "recover-rsnode(failed)"}
	if len(acts.calls) != len(want) {
		t.Fatalf("calls = %v, want %v", acts.calls, want)
	}
	for i := range want {
		if acts.calls[i] != want[i] {
			t.Errorf("call %d = %q, want %q", i, acts.calls[i], want[i])
		}
	}
}

// TestInjectorThresholdsCrossedAtOnce hands the injector the count after a
// whole instant's completions, as the runner's barrier does: one call that
// crosses three thresholds fires all three in declaration order, and
// Pending turns false after the last. A time-positioned event does not
// count as pending, and a schedule without fractions never is.
func TestInjectorThresholdsCrossedAtOnce(t *testing.T) {
	eng := sim.NewEngine()
	acts := &fakeActions{}
	events := []Event{
		{Kind: KindServerCrash, AtFraction: 0.2, Server: 0},
		{Kind: KindServerSlowdown, AtFraction: 0.5, Server: 1, Multiplier: 2},
		{Kind: KindLinkDelay, AtMs: 1, Rack: 0, ExtraMs: 1},
		{Kind: KindServerRestart, AtFraction: 0.5, Server: 0},
	}
	in, err := NewInjector(eng, acts, 10, events, nil)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	in.OnCompletion(1)
	if len(acts.calls) != 0 || !in.Pending() {
		t.Fatalf("after 1 completion: calls %v, Pending %v; want none fired and pending", acts.calls, in.Pending())
	}
	in.OnCompletion(7)
	want := []string{"crash-server(0)", "slowdown(1,x2)", "restart-server(0)"}
	if fmt.Sprint(acts.calls) != fmt.Sprint(want) {
		t.Fatalf("calls = %v, want %v", acts.calls, want)
	}
	if in.Pending() {
		t.Fatal("Pending after every threshold fired")
	}
	in.OnCompletion(10)
	if len(acts.calls) != len(want) {
		t.Fatalf("calls = %v after the run's last completion, want no more", acts.calls)
	}

	timed, err := NewInjector(eng, acts, 10, events[2:3], nil)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	if timed.Pending() {
		t.Fatal("a schedule without fraction events reports Pending")
	}
}

func TestInjectorReportsErrorsWithoutInverse(t *testing.T) {
	eng := sim.NewEngine()
	acts := &fakeActions{failAll: true}
	var reports []string
	in, err := NewInjector(eng, acts, 100, []Event{
		{Kind: KindServerCrash, AtMs: 1, Server: 0, DurationMs: 10},
	}, func(msg string) { reports = append(reports, msg) })
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	if err := in.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	eng.Run()
	// The failed crash must not schedule its restart inverse.
	if len(acts.calls) != 1 {
		t.Fatalf("calls = %v, want only the failed crash", acts.calls)
	}
	if len(reports) != 1 {
		t.Fatalf("reports = %v, want one error line", reports)
	}
}

func TestInjectorRejectsInvalidEvents(t *testing.T) {
	eng := sim.NewEngine()
	_, err := NewInjector(eng, &fakeActions{}, 100, []Event{{Kind: "nope", AtMs: 1}}, nil)
	if !errors.Is(err, ErrInvalidSchedule) {
		t.Fatalf("err = %v, want ErrInvalidSchedule", err)
	}
}
