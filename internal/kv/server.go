package kv

import (
	"fmt"

	"netrs/internal/dist"
	"netrs/internal/sim"
	"netrs/internal/stats"
)

// Status is the server state piggybacked in read responses (§IV-A's SS
// segment). Replica-selection algorithms such as C3 feed on it.
type Status struct {
	// QueueSize counts requests pending at the server (waiting plus
	// executing) at response time.
	QueueSize int
	// ServiceTimeNs is the server's EWMA of its own service times in
	// nanoseconds (the reciprocal of the service rate µ̄ in C3's terms).
	ServiceTimeNs float64
}

// ServerConfig parameterizes a simulated replica server per §V-A.
type ServerConfig struct {
	// Parallelism is Np, the number of requests processed concurrently.
	Parallelism int
	// MeanServiceTime is tkv, the mean of the exponential service time.
	MeanServiceTime sim.Time
	// FluctuationInterval is how often the server redraws its performance
	// mode (50 ms in the paper). Zero disables fluctuation.
	FluctuationInterval sim.Time
	// FluctuationRange is the bimodal range parameter d: in each interval
	// the mean service time is either tkv or tkv/d with equal
	// probability. Must be ≥ 1 when fluctuation is enabled.
	FluctuationRange float64
	// StatusAlpha is the EWMA smoothing factor of the piggybacked
	// service-time estimate. Defaults to 0.9 when zero.
	StatusAlpha float64
}

// Server simulates one replica server: an Np-way parallel station with a
// FIFO queue, exponential service times whose mean fluctuates bimodally,
// and a piggybacked Status.
type Server struct {
	id     int
	eng    *sim.Engine
	cfg    ServerConfig
	rng    *sim.RNG
	expDrw *dist.Exponential // unit-mean; scaled by current mean
	fluct  *dist.Bimodal

	currentMean float64 // ns
	slow        float64 // fault-injected service-time multiplier (1 = nominal)
	paused      bool    // fault-injected outage: service halts, queue grows
	busy        int
	stEWMA      *stats.EWMA
	fluctOn     bool // the redraw process is running

	// queue holds the waiting requests inline, oldest first. headSeq is
	// the sequence number of its head entry (numbers start at 1 and count
	// every queued request), and queueCanceled counts the canceled entries
	// still in it, so QueueSize needs no scan.
	queue         sim.FIFO[queued]
	headSeq       uint64
	queueCanceled int

	served    uint64
	cancelled uint64
	maxQueue  int
	busyNs    sim.Time

	// finishFn is the shared service-completion handler; jobFree recycles
	// the svcJob carriers it consumes, so per-request scheduling performs
	// no heap allocation in steady state.
	finishFn sim.ArgHandler
	jobFree  []*svcJob
	redrawFn sim.Handler
}

// svcJob carries one in-service request and its drawn service time between
// startService and the completion event. Jobs are pool-recycled; queued
// requests need no carrier, as they wait inline in the server's ring.
type svcJob struct {
	req Request
	st  sim.Time
}

// queued is one waiting request, cancelable until service starts. A
// canceled entry stays in the ring, skipped, until it reaches the head.
type queued struct {
	req      Request
	canceled bool
}

// Ticket handles a submitted request: redundant-request schemes use it to
// cancel a duplicate that is still waiting in the queue (the cross-server
// cancellation of Dean & Barroso, cited as [9] by the paper). It names
// the request by its server's queue sequence number, which starts at 1,
// so the zero value cancels nothing.
type Ticket struct {
	srv *Server
	seq uint64
}

// Cancel removes the request from the server's queue if it has not
// started service. It reports whether the request was actually removed
// (false: already serving, already served, already canceled, or a
// zero Ticket); a removed request is never served, and its Done never
// runs. A sequence number below the queue head's has left the queue, so
// its request has started (or, canceled, been skipped).
func (t Ticket) Cancel() bool {
	s := t.srv
	if s == nil || t.seq < s.headSeq {
		return false
	}
	q := s.queue.At(int(t.seq - s.headSeq))
	if q.canceled {
		return false
	}
	q.canceled = true
	s.queueCanceled++
	s.cancelled++
	return true
}

// Request is a unit of server work. Done is invoked with Arg when service
// completes, along with the service time the request experienced
// (excluding queueing). As with sim.ArgHandler, the caller stores Done
// once and passes each request's state in Arg as a pooled pointer, so
// submitting a request allocates no closure.
type Request struct {
	Done func(arg any, serviceTime sim.Time)
	Arg  any
}

// NewServer builds a simulated server bound to the engine. Random draws
// come from rng, which the caller derives from the experiment seed.
func NewServer(id int, eng *sim.Engine, cfg ServerConfig, rng *sim.RNG) (*Server, error) {
	if cfg.Parallelism < 1 {
		return nil, fmt.Errorf("server %d parallelism %d: %w", id, cfg.Parallelism, ErrInvalidParam)
	}
	if cfg.MeanServiceTime <= 0 {
		return nil, fmt.Errorf("server %d mean service time %v: %w", id, cfg.MeanServiceTime, ErrInvalidParam)
	}
	if cfg.FluctuationInterval < 0 {
		return nil, fmt.Errorf("server %d fluctuation interval %v: %w", id, cfg.FluctuationInterval, ErrInvalidParam)
	}
	if stats.IsZero(cfg.StatusAlpha) {
		cfg.StatusAlpha = 0.9
	}
	s := &Server{
		id:          id,
		eng:         eng,
		cfg:         cfg,
		rng:         rng,
		currentMean: float64(cfg.MeanServiceTime),
		slow:        1,
		headSeq:     1,
	}
	s.finishFn = func(arg any) { s.finishJob(arg.(*svcJob)) }
	s.redrawFn = s.redrawMode
	var err error
	if s.expDrw, err = dist.NewExponential(1, rng.Stream(1)); err != nil {
		return nil, err
	}
	if cfg.FluctuationInterval > 0 {
		if cfg.FluctuationRange < 1 {
			return nil, fmt.Errorf("server %d fluctuation range %v: %w", id, cfg.FluctuationRange, ErrInvalidParam)
		}
		if s.fluct, err = dist.NewBimodal(float64(cfg.MeanServiceTime), cfg.FluctuationRange, rng.Stream(2)); err != nil {
			return nil, err
		}
	}
	if s.stEWMA, err = stats.NewEWMA(cfg.StatusAlpha); err != nil {
		return nil, err
	}
	return s, nil
}

// ID returns the server's identifier.
func (s *Server) ID() int { return s.id }

// Start begins the performance-fluctuation process. Idempotent; a no-op
// when fluctuation is disabled.
func (s *Server) Start() {
	if s.fluct == nil || s.fluctOn {
		return
	}
	s.fluctOn = true
	s.redrawMode()
}

func (s *Server) redrawMode() {
	s.currentMean = s.fluct.Draw()
	s.eng.MustSchedule(s.cfg.FluctuationInterval, s.redrawFn)
}

// CurrentMeanServiceTime exposes the active performance mode, mainly for
// tests and instrumentation.
func (s *Server) CurrentMeanServiceTime() sim.Time { return sim.Time(s.currentMean) }

// SetSlowdown scales the server's mean service time by mult on top of the
// fluctuating performance mode — the fault engine's brownout knob. Requests
// already in service keep their drawn times; subsequent draws are scaled.
// Multiplier 1 restores nominal speed.
func (s *Server) SetSlowdown(mult float64) error {
	if mult <= 0 {
		return fmt.Errorf("server %d slowdown multiplier %v: %w", s.id, mult, ErrInvalidParam)
	}
	s.slow = mult
	return nil
}

// Slowdown returns the active slowdown multiplier.
func (s *Server) Slowdown() float64 { return s.slow }

// Pause halts the server — the fault engine's crash model. In-flight
// service completes (the work was already committed to the simulated CPU),
// but no queued or newly submitted request starts service until Resume.
// Idempotent.
func (s *Server) Pause() { s.paused = true }

// Resume restarts a paused server and immediately starts service on queued
// requests up to the free parallel slots. Idempotent.
func (s *Server) Resume() {
	if !s.paused {
		return
	}
	s.paused = false
	for s.busy < s.cfg.Parallelism && s.startNext() {
	}
}

// startNext starts service on the oldest queued request that has not
// been canceled; popping it advances headSeq past its ticket, which can
// then no longer cancel it. It reports whether one started.
func (s *Server) startNext() bool {
	for s.queue.Len() > 0 {
		next := s.queue.Pop()
		s.headSeq++
		if next.canceled {
			s.queueCanceled--
			continue
		}
		s.startService(next.req)
		return true
	}
	return false
}

// Paused reports whether the server is in a fault-injected outage.
func (s *Server) Paused() bool { return s.paused }

// Submit enqueues a request. It starts service immediately when a
// parallel slot is free. The returned ticket can cancel the request while
// it is still queued.
func (s *Server) Submit(req Request) Ticket {
	if !s.paused && s.busy < s.cfg.Parallelism {
		s.startService(req)
		return Ticket{}
	}
	seq := s.headSeq + uint64(s.queue.Len())
	*s.queue.Push() = queued{req: req}
	if qs := s.QueueSize(); qs > s.maxQueue {
		s.maxQueue = qs
	}
	return Ticket{srv: s, seq: seq}
}

func (s *Server) startService(req Request) {
	s.busy++
	st := sim.Time(s.expDrw.Draw() * s.currentMean * s.slow)
	if st < 1 {
		st = 1
	}
	var j *svcJob
	if k := len(s.jobFree); k > 0 {
		j = s.jobFree[k-1]
		s.jobFree = s.jobFree[:k-1]
	} else {
		j = &svcJob{}
	}
	j.req = req
	j.st = st
	s.eng.MustScheduleArg(st, s.finishFn, j)
}

// finishJob unpacks and recycles the job carrier before running the
// completion logic (the Done callback may re-enter Submit/startService).
func (s *Server) finishJob(j *svcJob) {
	req, st := j.req, j.st
	j.req = Request{} // drop the Done and Arg references while pooled
	s.jobFree = append(s.jobFree, j)
	s.finishService(req, st)
}

func (s *Server) finishService(req Request, st sim.Time) {
	s.busy--
	s.served++
	s.busyNs += st
	s.stEWMA.Observe(float64(st))
	// A paused server leaves its queue intact for Resume.
	if !s.paused {
		s.startNext()
	}
	if req.Done != nil {
		req.Done(req.Arg, st)
	}
}

// QueueSize returns pending requests: executing plus waiting (canceled
// entries excluded).
func (s *Server) QueueSize() int {
	return s.busy + s.queue.Len() - s.queueCanceled
}

// Cancelled returns the number of queue-canceled requests.
func (s *Server) Cancelled() uint64 { return s.cancelled }

// Status returns the piggybacked server state.
func (s *Server) Status() Status {
	st := s.stEWMA.Value()
	if stats.IsZero(st) {
		// Before any completion, advertise the configured mean so
		// selectors have a sane prior.
		st = float64(s.cfg.MeanServiceTime)
	}
	return Status{QueueSize: s.QueueSize(), ServiceTimeNs: st}
}

// Served returns the number of completed requests.
func (s *Server) Served() uint64 { return s.served }

// MaxQueue returns the high-water mark of the queue size.
func (s *Server) MaxQueue() int { return s.maxQueue }

// BusyTime returns the cumulative service time delivered.
func (s *Server) BusyTime() sim.Time { return s.busyNs }
