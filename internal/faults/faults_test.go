package faults

import (
	"errors"
	"fmt"
	"strings"
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

// clock is a recording scheduler standing in for the run's ShardSet
// globals: it notes every instant handed to it and runs the scheduled
// funcs in (instant, registration) order.
type clock struct {
	scheduled []sim.Time
	pending   []pendingFn
	seq       int
	err       error
}

type pendingFn struct {
	at  sim.Time
	seq int
	fn  func()
}

func (c *clock) schedule(at sim.Time, fn func()) error {
	if c.err != nil {
		return c.err
	}
	c.scheduled = append(c.scheduled, at)
	c.pending = append(c.pending, pendingFn{at, c.seq, fn})
	c.seq++
	return nil
}

// run executes every scheduled func, including those scheduled on the way.
func (c *clock) run() {
	for len(c.pending) > 0 {
		best := 0
		for i, p := range c.pending {
			if b := c.pending[best]; p.at < b.at || (p.at == b.at && p.seq < b.seq) {
				best = i
			}
		}
		p := c.pending[best]
		c.pending = append(c.pending[:best], c.pending[best+1:]...)
		p.fn()
	}
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

func TestInjectorTimedEventsAndInverses(t *testing.T) {
	clk := &clock{}
	acts := &fakeActions{}
	events := []Event{
		{Kind: KindServerSlowdown, AtMs: 10, Server: 2, Multiplier: 4, DurationMs: 5},
		{Kind: KindServerCrash, AtMs: 20, Server: 1, DurationMs: 5},
		{Kind: KindLinkDelay, AtMs: 30, Rack: 1, ExtraMs: 0.5, DurationMs: 5},
		{Kind: KindRSNodeCrash, AtMs: 40, RSNode: TargetBusiest, DurationMs: 5},
	}
	in, err := NewInjector(clk.schedule, acts, 1000, events, nil)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	if err := in.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	clk.run()
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
	// Start schedules the events in declaration order at their instants,
	// and each inverse goes to its event's instant plus the duration.
	wantAt := []sim.Time{10, 20, 30, 40, 15, 25, 35, 45}
	if len(clk.scheduled) != len(wantAt) {
		t.Fatalf("scheduled %v, want %v ms", clk.scheduled, wantAt)
	}
	for i, ms := range wantAt {
		if clk.scheduled[i] != ms*sim.Millisecond {
			t.Errorf("schedule %d at %v, want %v", i, clk.scheduled[i], ms*sim.Millisecond)
		}
	}
}

func TestInjectorFractionThresholds(t *testing.T) {
	clk := &clock{}
	acts := &fakeActions{}
	events := []Event{
		// Declared out of order: must fire sorted by completion count.
		{Kind: KindRSNodeRecover, AtFraction: 0.6, RSNode: TargetFailed},
		{Kind: KindRSNodeCrash, AtFraction: 0.3, RSNode: TargetBusiest},
		// Tiny fraction still clamps up to the first completion.
		{Kind: KindServerCrash, AtFraction: 0.0001, Server: 0},
	}
	in, err := NewInjector(clk.schedule, acts, 10, events, nil)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	if !in.Pending() {
		t.Fatal("Pending false before the first completion")
	}
	for completed := 1; completed <= 10; completed++ {
		in.OnCompletion(completed, sim.Time(completed)*sim.Millisecond)
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
	clk := &clock{}
	acts := &fakeActions{}
	events := []Event{
		{Kind: KindServerCrash, AtFraction: 0.2, Server: 0},
		{Kind: KindServerSlowdown, AtFraction: 0.5, Server: 1, Multiplier: 2},
		{Kind: KindLinkDelay, AtMs: 1, Rack: 0, ExtraMs: 1},
		{Kind: KindServerRestart, AtFraction: 0.5, Server: 0},
	}
	in, err := NewInjector(clk.schedule, acts, 10, events, nil)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	in.OnCompletion(1, sim.Millisecond)
	if len(acts.calls) != 0 || !in.Pending() {
		t.Fatalf("after 1 completion: calls %v, Pending %v; want none fired and pending", acts.calls, in.Pending())
	}
	in.OnCompletion(7, 7*sim.Millisecond)
	want := []string{"crash-server(0)", "slowdown(1,x2)", "restart-server(0)"}
	if fmt.Sprint(acts.calls) != fmt.Sprint(want) {
		t.Fatalf("calls = %v, want %v", acts.calls, want)
	}
	if in.Pending() {
		t.Fatal("Pending after every threshold fired")
	}
	in.OnCompletion(10, 10*sim.Millisecond)
	if len(acts.calls) != len(want) {
		t.Fatalf("calls = %v after the run's last completion, want no more", acts.calls)
	}

	timed, err := NewInjector(clk.schedule, acts, 10, events[2:3], nil)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	if timed.Pending() {
		t.Fatal("a schedule without fraction events reports Pending")
	}
}

func TestInjectorReportsErrorsWithoutInverse(t *testing.T) {
	clk := &clock{}
	acts := &fakeActions{failAll: true}
	var reports []string
	in, err := NewInjector(clk.schedule, acts, 100, []Event{
		{Kind: KindServerCrash, AtMs: 1, Server: 0, DurationMs: 10},
	}, func(msg string) { reports = append(reports, msg) })
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	if err := in.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	clk.run()
	// The failed crash must not schedule its restart inverse.
	if len(acts.calls) != 1 || len(clk.scheduled) != 1 {
		t.Fatalf("calls = %v, scheduled at %v; want only the failed crash", acts.calls, clk.scheduled)
	}
	// The error line carries the fault's instant.
	if len(reports) != 1 || !strings.Contains(reports[0], " at "+sim.Millisecond.String()+": ") {
		t.Fatalf("reports = %v, want one error line at %v", reports, sim.Millisecond)
	}
}

func TestInjectorRejectsInvalidEvents(t *testing.T) {
	clk := &clock{}
	_, err := NewInjector(clk.schedule, &fakeActions{}, 100, []Event{{Kind: "nope", AtMs: 1}}, nil)
	if !errors.Is(err, ErrInvalidSchedule) {
		t.Fatalf("err = %v, want ErrInvalidSchedule", err)
	}
}

// TestInjectorThresholdInverseAndScheduleError: a fraction-positioned
// fault with a duration schedules its inverse at the instant the runner
// passed plus the duration, and Start returns the scheduler's refusal.
func TestInjectorThresholdInverseAndScheduleError(t *testing.T) {
	clk := &clock{}
	acts := &fakeActions{}
	in, err := NewInjector(clk.schedule, acts, 10, []Event{
		{Kind: KindServerCrash, AtFraction: 0.5, Server: 3, DurationMs: 4},
	}, nil)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	in.OnCompletion(5, 7*sim.Millisecond)
	if len(clk.scheduled) != 1 || clk.scheduled[0] != 11*sim.Millisecond {
		t.Fatalf("inverse scheduled at %v, want [%v]", clk.scheduled, 11*sim.Millisecond)
	}
	clk.run()
	if want := "[crash-server(3) restart-server(3)]"; fmt.Sprint(acts.calls) != want {
		t.Fatalf("calls = %v, want %s", acts.calls, want)
	}

	refused := &clock{err: errors.New("closed")}
	timed, err := NewInjector(refused.schedule, acts, 10, []Event{{Kind: KindServerCrash, AtMs: 1, Server: 0}}, nil)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	if err := timed.Start(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Start = %v, want the scheduler's error", err)
	}
}

// TestEventString pins the compact rendering Result.Errors lines carry:
// the kind, its target, and the position on the clock or the run.
func TestEventString(t *testing.T) {
	for _, tc := range []struct {
		ev   Event
		want string
	}{
		{Event{Kind: KindRSNodeCrash, AtFraction: 0.35, RSNode: TargetBusiest}, "rsnode-crash(busiest)@35%"},
		{Event{Kind: KindRSNodeRecover, AtMs: 20, RSNode: "7"}, "rsnode-recover(7)@20.000ms"},
		{Event{Kind: KindServerSlowdown, AtMs: 1.5, Server: 2, Multiplier: 4}, "server-slowdown(server=2,x4)@1.500ms"},
		{Event{Kind: KindServerCrash, AtFraction: 0.5, Server: 3}, "server-crash(server=3)@50%"},
		{Event{Kind: KindServerRestart, AtMs: 9, Server: 3}, "server-restart(server=3)@9.000ms"},
		{Event{Kind: KindLinkDelay, AtMs: 30, Rack: 1, ExtraMs: 0.25}, "link-delay(rack=1,+0.25ms)@30.000ms"},
		{Event{Kind: "nope", AtMs: 1}, "nope@1.000ms"},
	} {
		if got := tc.ev.String(); got != tc.want {
			t.Errorf("%+v renders %q, want %q", tc.ev, got, tc.want)
		}
	}
}
