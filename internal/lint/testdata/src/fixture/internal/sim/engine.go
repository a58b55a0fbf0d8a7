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

// ScheduleSorted registers n pre-sorted events read through item, each
// running fn on the argument item returns: the real engine's cursor
// beside the agenda. Like Lane.ScheduleArg, it never calls back into the
// Engine's scheduling methods, so only its own name can register fn.
func (e *Engine) ScheduleSorted(n int, fn ArgHandler, item func(i int) (int, any)) {
	for i := 0; i < n; i++ {
		_, arg := item(i)
		e.argFns = append(e.argFns, fn)
		e.args = append(e.args, arg)
	}
}

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
