package sim

// Handler is a scheduled closure, mirroring the real engine's surface.
type Handler func()

// ArgHandler is a scheduled function plus one boxed argument.
type ArgHandler func(arg any)

// Engine is a miniature of the real scheduler: just enough surface for
// the fixtures to register handler roots with the call-graph builder.
type Engine struct {
	argFns []ArgHandler
	args   []any
}

// NewEngine builds an empty engine.
func NewEngine() *Engine { return &Engine{} }

// Schedule registers a Handler after a delay. Like the real engine, it
// forwards to ScheduleArg through a trampoline; that inner call must not
// make every Handler an ArgHandler root.
func (e *Engine) Schedule(delay int, fn Handler) { e.ScheduleArg(delay, callHandler, fn) }

// callHandler runs a Handler carried as an event argument.
func callHandler(arg any) { arg.(Handler)() }

// MustSchedule is Schedule with the real engine's panic contract.
func (e *Engine) MustSchedule(delay int, fn Handler) { e.Schedule(delay, fn) }

// ScheduleArg registers an ArgHandler and its argument after a delay.
func (e *Engine) ScheduleArg(delay int, fn ArgHandler, arg any) {
	e.argFns = append(e.argFns, fn)
	e.args = append(e.args, arg)
}

// MustScheduleArg is ScheduleArg with the panic contract.
func (e *Engine) MustScheduleArg(delay int, fn ArgHandler, arg any) { e.ScheduleArg(delay, fn, arg) }

// Stream opens a stream of n events, each running fn on the argument it
// is pushed with: the real engine's appendable lane beside the agenda.
// Like Lane.ScheduleArg, it never calls back into the Engine's scheduling
// methods, so only its own name can register fn.
func (e *Engine) Stream(n int, fn ArgHandler) *Stream { return &Stream{fn: fn} }

// Stream is the events pushed onto one stream.
type Stream struct {
	fn     ArgHandler
	argFns []ArgHandler
	args   []any
}

// Push appends event i, due at instant at, with its argument.
func (s *Stream) Push(i, at int, arg any) {
	s.argFns = append(s.argFns, s.fn)
	s.args = append(s.args, arg)
}

// RNG is a random source; its Stream derives a child by index, so the
// name it shares with Engine.Stream must not make the index a boxing
// finding.
type RNG struct{ state uint64 }

// Stream derives child stream k.
func (r *RNG) Stream(k uint64) *RNG { return &RNG{state: r.state ^ k} }

// Lane is the real engine's fixed-delay FIFO: fire-and-forget events that
// skip the agenda heap. Like the real one, it never calls back into the
// Engine's scheduling methods, so only its own method name can register
// handler roots.
type Lane struct {
	argFns []ArgHandler
	args   []any
}

// Lane returns the engine's lane for one fixed delay.
func (e *Engine) Lane(delay int) *Lane { return &Lane{} }

// ScheduleArg registers an ArgHandler and its argument after the lane's
// delay: the engine method's name, without the delay operand.
func (l *Lane) ScheduleArg(fn ArgHandler, arg any) {
	l.argFns = append(l.argFns, fn)
	l.args = append(l.args, arg)
}
