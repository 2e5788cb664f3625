package metrics

import (
	"math"
	"sync/atomic"
)

// EWMA is a lock-free exponentially weighted moving average. It is the
// primitive behind the server's load-derived Retry-After: cheap enough to
// update on every request, and biased toward the recent past, which is the
// only past an overload controller cares about. The zero value is
// unusable; construct with NewEWMA.
type EWMA struct {
	alpha float64
	bits  atomic.Uint64 // float64 bits of the average; 0 means no samples yet
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0,1]: each
// observation contributes alpha of itself and decays the history by
// (1-alpha). Larger alpha reacts faster; 0.1 remembers roughly the last
// ~10 samples.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("metrics: EWMA alpha must be in (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Observe folds one sample into the average (CAS loop; safe for concurrent
// observers). The first sample seeds the average directly so the EWMA does
// not have to warm up from zero.
func (e *EWMA) Observe(v float64) {
	for {
		old := e.bits.Load()
		next := v
		if old != 0 {
			next = e.alpha*v + (1-e.alpha)*math.Float64frombits(old)
		}
		nb := math.Float64bits(next)
		if nb == 0 {
			nb = math.Float64bits(math.SmallestNonzeroFloat64) // keep "no samples" distinguishable
		}
		if e.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}

// Value returns the current average, or 0 before any observation.
func (e *EWMA) Value() float64 {
	b := e.bits.Load()
	if b == 0 {
		return 0
	}
	return math.Float64frombits(b)
}
