package kvnet

import (
	"time"

	"netrs/internal/c3"
	"netrs/internal/selection"
	"netrs/internal/sim"
)

// wallClock drives C3's rate controller from real time.
type wallClock struct {
	start time.Time
}

// Now returns nanoseconds since the clock's creation as simulated time.
func (w wallClock) Now() sim.Time { return sim.Time(time.Since(w.start)) }

// NewC3Selector builds a real-time C3 instance for the UDP operator: the
// full ranking function plus cubic rate control running against the wall
// clock (§IV-C's "arbitrary replica selection algorithm" on a real
// network stack). The returned selector is safe for the operator's
// single-threaded use; serialize shared instances yourself.
func NewC3Selector(cfg c3.Config) (selection.Selector, error) {
	sel, err := c3.NewSelectorWithClock(cfg, wallClock{start: time.Now()})
	if err != nil {
		return nil, err
	}
	return sel, nil
}
