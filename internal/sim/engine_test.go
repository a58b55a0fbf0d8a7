package sim

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{5, 1, 3, 2, 4} {
		d := d
		e.MustSchedule(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d ran at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineFIFOWithinSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.MustSchedule(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant order %v; want scheduling order", order)
		}
	}
}

func TestEngineZeroDelayRunsAfterCurrentInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	e.MustSchedule(1, func() {
		order = append(order, "a")
		e.MustSchedule(0, func() { order = append(order, "c") })
		order = append(order, "b")
	})
	e.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v, want [a b c]", order)
	}
}

func TestEngineNegativeDelay(t *testing.T) {
	e := NewEngine()
	if err := e.Schedule(-1, func() {}); !errors.Is(err, ErrNegativeDelay) {
		t.Fatalf("Schedule(-1) error = %v, want ErrNegativeDelay", err)
	}
	e.MustSchedule(10, func() {})
	e.Run()
	if err := e.ScheduleAt(5, func() {}); !errors.Is(err, ErrNegativeDelay) {
		t.Fatalf("ScheduleAt(past) error = %v, want ErrNegativeDelay", err)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 100; i++ {
		e.MustSchedule(Time(i), func() {
			count++
			if count == 10 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 10 {
		t.Fatalf("ran %d events before stop, want 10", count)
	}
	e.Run()
	if count != 100 {
		t.Fatalf("resume ran to %d events, want 100", count)
	}
}

// TestEngineRunUntil pins the deadline and Stop contract for heap and lane
// events alike: lane events bound the run exactly as heap events do.
func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var times []Time
	for _, d := range []Time{10, 20, 30, 40} {
		e.MustSchedule(d, func() { times = append(times, e.Now()) })
	}
	record := func(any) { times = append(times, e.Now()) }
	e.Lane(25).ScheduleArg(record, nil) // at 25
	e.Lane(26).ScheduleArg(record, nil) // at 26
	// A lane event exactly at the deadline runs; the one after it waits.
	n := e.RunUntil(25)
	if n != 3 {
		t.Fatalf("RunUntil executed %d events, want 3", n)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v after RunUntil(25), want 25", e.Now())
	}
	if at, ok := e.NextEventAt(); !ok || at != 26 {
		t.Fatalf("NextEventAt = %v, %v; want the lane head at 26", at, ok)
	}
	// RunBefore leaves an event at its end pending.
	if n := e.RunBefore(26); n != 0 || e.Now() != 25 {
		t.Fatalf("RunBefore(26): %d events, clock %v; want 0, 25", n, e.Now())
	}
	// An event exactly at the deadline runs; the one after it waits.
	if n := e.RunUntil(30); n != 2 || e.Now() != 30 || e.Pending() != 1 {
		t.Fatalf("RunUntil(30): %d events, clock %v, %d pending; want 2, 30, 1", n, e.Now(), e.Pending())
	}
	// A Stop mid-run leaves the clock at the stopping instant, not the
	// deadline, and the later events pending.
	e.MustSchedule(5, func() { times = append(times, e.Now()); e.Stop() })
	if n := e.RunUntil(100); n != 1 || e.Now() != 35 || e.Pending() != 1 {
		t.Fatalf("RunUntil(100) with Stop at 35: %d events, clock %v, %d pending; want 1, 35, 1", n, e.Now(), e.Pending())
	}
	// A lane handler's Stop does the same.
	e.Lane(3).ScheduleArg(func(any) { times = append(times, e.Now()); e.Stop() }, nil)
	if n := e.RunUntil(100); n != 1 || e.Now() != 38 || e.Pending() != 1 {
		t.Fatalf("RunUntil(100) with lane Stop at 38: %d events, clock %v, %d pending; want 1, 38, 1", n, e.Now(), e.Pending())
	}
	e.Run()
	want := []Time{10, 20, 25, 26, 30, 35, 38, 40}
	if !slices.Equal(times, want) {
		t.Fatalf("event times %v, want %v", times, want)
	}
	if e.Executed() != 8 || e.Scheduled() != 8 || e.Pending() != 0 {
		t.Fatalf("executed=%d scheduled=%d pending=%d, want 8/8/0", e.Executed(), e.Scheduled(), e.Pending())
	}
}

// TestAdvanceToPanicsOnPendingLaneEvent checks that AdvanceTo sees lane
// events — fixed-delay, inbox and stream alike: lifting the clock past one
// would run it in the past.
func TestAdvanceToPanicsOnPendingLaneEvent(t *testing.T) {
	noop := func(any) {}
	for name, schedule := range map[string]func(e *Engine){
		"fixed-delay": func(e *Engine) { e.Lane(5).ScheduleArg(noop, nil) },
		"inbox": func(e *Engine) {
			if err := e.deliver([]xmsg{{at: 5, fn: noop}}); err != nil {
				t.Fatal(err)
			}
		},
		"stream": func(e *Engine) {
			str, err := e.Stream(2, noop)
			if err == nil {
				err = str.Push(1, 5, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		},
	} {
		e := NewEngine()
		schedule(e)
		e.AdvanceTo(5) // up to the event's instant is allowed
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AdvanceTo past a pending lane event did not panic", name)
				}
			}()
			e.AdvanceTo(6)
		}()
	}
}

// TestLanePanics pins the lane's MustScheduleArg-style contract, and
// the engine's own Must* methods beside it.
func TestLanePanics(t *testing.T) {
	e := NewEngine()
	for name, fn := range map[string]func(){
		"Lane(-1)":            func() { e.Lane(-1) },
		"ScheduleArg(nil)":    func() { e.Lane(1).ScheduleArg(nil, nil) },
		"MustSchedule(-1)":    func() { e.MustSchedule(-1, func() {}) },
		"MustScheduleArg(-1)": func() { e.MustScheduleArg(-1, func(any) {}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	if e.Lane(3) != e.Lane(3) || e.Lane(3) == e.Lane(4) {
		t.Error("Lane must return one lane per distinct delay")
	}
}

func TestEngineCountersAndPending(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.MustSchedule(Time(i), func() {})
	}
	if e.Pending() != 5 || e.Scheduled() != 5 {
		t.Fatalf("pending=%d scheduled=%d, want 5/5", e.Pending(), e.Scheduled())
	}
	e.Run()
	if e.Executed() != 5 || e.Pending() != 0 {
		t.Fatalf("executed=%d pending=%d, want 5/0", e.Executed(), e.Pending())
	}
}

func TestEngineRecursiveScheduling(t *testing.T) {
	e := NewEngine()
	const depth = 1000
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < depth {
			e.MustSchedule(1, tick)
		}
	}
	e.MustSchedule(1, tick)
	e.Run()
	if n != depth {
		t.Fatalf("chain ran %d ticks, want %d", n, depth)
	}
	if e.Now() != depth {
		t.Fatalf("clock = %v, want %d", e.Now(), depth)
	}
}

// Property: for any set of delays, the engine executes events sorted by
// delay, with FIFO tie-breaking by scheduling order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range raw {
			i, at := i, Time(d)
			e.MustSchedule(at, func() { got = append(got, rec{e.Now(), i}) })
		}
		e.Run()
		if len(got) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].at != got[j].at {
				return got[i].at < got[j].at
			}
			return got[i].seq < got[j].seq
		}) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		give Time
		ms   float64
	}{
		{Millisecond, 1},
		{4 * Millisecond, 4},
		{500 * Microsecond, 0.5},
		{0, 0},
	}
	for _, c := range cases {
		if got := c.give.Float64Ms(); got != c.ms {
			t.Errorf("%d ns = %vms, want %vms", c.give, got, c.ms)
		}
	}
	if FromMs(2.5) != 2500*Microsecond {
		t.Errorf("FromMs(2.5) = %v", FromMs(2.5))
	}
	if FromUs(30) != 30*Microsecond {
		t.Errorf("FromUs(30) = %v", FromUs(30))
	}
	if FromSeconds(1) != Second {
		t.Errorf("FromSeconds(1) = %v", FromSeconds(1))
	}
	if s := (1500 * Microsecond).String(); s != "1.500ms" {
		t.Errorf("String() = %q", s)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds agreed on %d of 1000 draws", same)
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	root := NewRNG(7)
	s1, s2 := root.Stream(1), root.Stream(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if s1.Uint64() == s2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams agreed on %d of 1000 draws", same)
	}
	// Deriving the same stream id twice must give identical sequences.
	r1, r2 := NewRNG(7).Stream(5), NewRNG(7).Stream(5)
	for i := 0; i < 100; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("same stream id diverged")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNG(9)
	const buckets, n = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		if c < n/buckets*8/10 || c > n/buckets*12/10 {
			t.Fatalf("bucket %d count %d far from uniform %d", b, c, n/buckets)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("Exp mean = %v, want ~1", mean)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGPanics(t *testing.T) {
	r := NewRNG(1)
	for name, fn := range map[string]func(){
		"Intn(0)":    func() { r.Intn(0) },
		"Intn(-1)":   func() { r.Intn(-1) },
		"Uint64n(0)": func() { r.Uint64n(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.MustSchedule(Time(i%97), func() {})
		if e.Pending() > 4096 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
