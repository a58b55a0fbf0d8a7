package kv

import (
	"slices"
	"testing"

	"netrs/internal/sim"
)

// refQueue is the server queue's reference model: a slice of pointers
// popped from the front, each entry flagged canceled or started, and a
// QueueSize that scans the whole queue — the representation the ring and
// its sequence-numbered tickets replaced. It models no time: the test
// tells it which request the real server completed.
type refQueue struct {
	np        int
	paused    bool
	queue     []*refEntry
	inService []int // ids in service, in start order
	started   []int // every id ever started, in start order
	cancelled uint64
	maxQueue  int
}

type refEntry struct {
	id                int
	canceled, started bool
}

func (r *refQueue) queueSize() int {
	n := len(r.inService)
	for _, e := range r.queue {
		if !e.canceled {
			n++
		}
	}
	return n
}

func (r *refQueue) start(id int) {
	r.inService = append(r.inService, id)
	r.started = append(r.started, id)
}

// submit mirrors Server.Submit; a nil entry is the zero Ticket of a
// request that started at once.
func (r *refQueue) submit(id int) *refEntry {
	if !r.paused && len(r.inService) < r.np {
		r.start(id)
		return nil
	}
	e := &refEntry{id: id}
	r.queue = append(r.queue, e)
	if qs := r.queueSize(); qs > r.maxQueue {
		r.maxQueue = qs
	}
	return e
}

func (r *refQueue) cancel(e *refEntry) bool {
	if e == nil || e.canceled || e.started {
		return false
	}
	e.canceled = true
	r.cancelled++
	return true
}

func (r *refQueue) startNext() bool {
	for len(r.queue) > 0 {
		e := r.queue[0]
		r.queue = r.queue[1:]
		if e.canceled {
			continue
		}
		e.started = true
		r.start(e.id)
		return true
	}
	return false
}

// finish retires a completed request; it reports false when the model
// did not have id in service.
func (r *refQueue) finish(id int) bool {
	i := slices.Index(r.inService, id)
	if i < 0 {
		return false
	}
	r.inService = slices.Delete(r.inService, i, i+1)
	if !r.paused {
		r.startNext()
	}
	return true
}

func (r *refQueue) resume() {
	if !r.paused {
		return
	}
	r.paused = false
	for len(r.inService) < r.np && r.startNext() {
	}
}

// TestServerQueueMatchesReference drives a Server and the slice-of-
// pointers reference through the same random Submit, Cancel (of queued,
// started, served, already-canceled and zero tickets), Pause, Resume and
// single-completion steps, then drains both. It compares every Cancel
// result and, after every step, QueueSize, MaxQueue, Cancelled and
// Served; each completion must be of a request the reference has in
// service, and at the end the service-start orders must agree (exactly
// at Np = 1, where completion order is start order). Fill phases push
// the queue past 64 entries while pops advance its head, so the ring
// grows at least three times (16 → 128 slots) and wraps in between.
func TestServerQueueMatchesReference(t *testing.T) {
	for _, np := range []int{1, 3} {
		for seed := uint64(1); seed <= 3; seed++ {
			checkQueueAgainstReference(t, np, seed)
		}
	}
}

func checkQueueAgainstReference(t *testing.T, np int, seed uint64) {
	t.Helper()
	eng := sim.NewEngine()
	s, err := NewServer(0, eng, ServerConfig{Parallelism: np, MeanServiceTime: sim.Millisecond}, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	ref := &refQueue{np: np}
	rng := sim.NewRNG(seed).Stream(7)

	var finished, completed []int
	ids := make([]int, 0, 4096)
	done := func(arg any, _ sim.Time) {
		finished = append(finished, *arg.(*int))
		eng.Stop()
	}
	var tickets []Ticket
	var entries []*refEntry

	check := func(step int, what string) {
		t.Helper()
		if got, want := s.QueueSize(), ref.queueSize(); got != want {
			t.Fatalf("np %d seed %d step %d (%s): QueueSize %d, reference %d", np, seed, step, what, got, want)
		}
		if got, want := s.MaxQueue(), ref.maxQueue; got != want {
			t.Fatalf("np %d seed %d step %d (%s): MaxQueue %d, reference %d", np, seed, step, what, got, want)
		}
		if got, want := s.Cancelled(), ref.cancelled; got != want {
			t.Fatalf("np %d seed %d step %d (%s): Cancelled %d, reference %d", np, seed, step, what, got, want)
		}
		if got, want := s.Served(), uint64(len(completed)); got != want {
			t.Fatalf("np %d seed %d step %d (%s): Served %d, completions seen %d", np, seed, step, what, got, want)
		}
	}
	// complete runs the engine to the next completion and retires it in
	// the reference; it reports whether one happened.
	complete := func(step int) bool {
		t.Helper()
		eng.Run()
		if len(finished) == 0 {
			return false
		}
		for _, id := range finished {
			if !ref.finish(id) {
				t.Fatalf("np %d seed %d step %d: server completed %d, reference has %v in service",
					np, seed, step, id, ref.inService)
			}
			completed = append(completed, id)
		}
		finished = finished[:0]
		return true
	}

	// Cumulative weights of submit, cancel, complete and pause per phase;
	// the remainder resumes. Fill phases grow the queue, drain phases
	// shrink it and so advance the ring's head.
	fillW := [4]float64{0.70, 0.88, 0.94, 0.97}
	drainW := [4]float64{0.20, 0.35, 0.94, 0.97}
	step := 0
	for phase := 0; phase < 8; phase++ {
		w := drainW
		if phase%2 == 0 {
			w = fillW
		}
		for i := 0; i < 160; i++ {
			step++
			switch u := rng.Float64(); {
			case u < w[0]:
				ids = append(ids, len(ids))
				id := &ids[len(ids)-1]
				tickets = append(tickets, s.Submit(Request{Done: done, Arg: id}))
				entries = append(entries, ref.submit(*id))
				check(step, "submit")
			case u < w[1]:
				if len(tickets) == 0 {
					continue
				}
				k := rng.Intn(len(tickets))
				if got, want := tickets[k].Cancel(), ref.cancel(entries[k]); got != want {
					t.Fatalf("np %d seed %d step %d: Cancel(request %d) = %v, reference %v", np, seed, step, k, got, want)
				}
				check(step, "cancel")
			case u < w[2]:
				complete(step)
				check(step, "complete")
			case u < w[3]:
				s.Pause()
				ref.paused = true
				check(step, "pause")
			default:
				s.Resume()
				ref.resume()
				check(step, "resume")
			}
		}
	}
	if (Ticket{}).Cancel() {
		t.Fatal("zero ticket cancelled something")
	}
	s.Resume()
	ref.resume()
	for complete(step) {
		step++
		check(step, "drain")
	}
	if ref.queueSize() != 0 || s.QueueSize() != 0 {
		t.Fatalf("np %d seed %d: drained queue sizes %d (reference %d)", np, seed, s.QueueSize(), ref.queueSize())
	}
	if s.MaxQueue() <= 64 {
		t.Fatalf("np %d seed %d: queue peaked at %d; the ring needs more than 64 entries to grow three times", np, seed, s.MaxQueue())
	}
	want := ref.started
	got := completed
	if np > 1 {
		want = slices.Sorted(slices.Values(want))
		got = slices.Sorted(slices.Values(got))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("np %d seed %d: served %d requests, reference started %d, orders differ", np, seed, len(got), len(want))
	}
	// Every submission is either served or cancelled.
	if uint64(len(ids)) != s.Served()+s.Cancelled() {
		t.Fatalf("np %d seed %d: %d submitted, %d served + %d cancelled", np, seed, len(ids), s.Served(), s.Cancelled())
	}
}

// TestServerQueueAllocFree pins the warm queue at zero allocations: a
// burst that overflows the parallel slots, cancels every fifth waiting
// request, and drains, once the ring, the job pool and the engine have
// grown to the burst's size.
func TestServerQueueAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	s, err := NewServer(0, eng, ServerConfig{Parallelism: 2, MeanServiceTime: sim.Millisecond}, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	arg := new(int)
	req := Request{Done: func(any, sim.Time) { served++ }, Arg: arg}
	cycle := func() {
		for i := 0; i < 100; i++ {
			tk := s.Submit(req)
			if i%5 == 4 {
				tk.Cancel()
			}
		}
		eng.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("warm submit/queue/drain cycle allocates %v times, want 0", allocs)
	}
	if s.QueueSize() != 0 || served == 0 {
		t.Fatalf("queue size %d after drain, %d served", s.QueueSize(), served)
	}
}
