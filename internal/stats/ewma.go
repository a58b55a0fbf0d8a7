package stats

import (
	"fmt"
	"math"
)

// EWMA is an exponentially weighted moving average, kept per server by the
// replica servers' status smoothing and the DynamicSnitch and Tars
// baselines.
type EWMA struct {
	alpha float64
	value float64
	n     uint64
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]. Larger
// alpha weights recent observations more heavily. The first observation
// initializes the average directly.
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("stats: ewma alpha %v out of (0, 1]", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Observe folds one observation into the average.
func (e *EWMA) Observe(v float64) {
	e.n++
	if e.n == 1 {
		e.value = v
		return
	}
	e.value = e.alpha*v + (1-e.alpha)*e.value
}

// Value returns the current average; zero before any observation.
func (e *EWMA) Value() float64 { return e.value }

// Observations returns how many values have been folded in.
func (e *EWMA) Observations() uint64 { return e.n }

// Reset forgets all observations.
func (e *EWMA) Reset() { e.value, e.n = 0, 0 }
