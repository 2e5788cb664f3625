package server

import (
	"errors"
	"sync/atomic"
)

// errShed is returned by retrieval paths refused by the admission
// controller; the error mapper answers it with 503 overloaded plus a
// load-derived Retry-After.
var errShed = errors.New("server: admission budget exhausted")

// admission is the concurrency limiter of the read path: it admits at most
// budget retrievals at once, each charged one unit whatever its shape. On
// the served model a cold-start scan costs about one exact scan and an
// explicit IVF probe several, so no finer price would be closer to the
// truth. Excess load is shed immediately — queueing under overload only
// converts shed into timeout.
type admission struct {
	budget   int64        // retrievals admitted at once, >= 1
	inflight atomic.Int64 // retrievals currently admitted
}

// tryAcquire admits one retrieval, or reports false to shed.
func (a *admission) tryAcquire() bool {
	for {
		cur := a.inflight.Load()
		if cur >= a.budget {
			return false
		}
		if a.inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// release hands back one admitted retrieval.
func (a *admission) release() { a.inflight.Add(-1) }

// pressure is the admitted fraction of the limit, which scales the
// advertised Retry-After.
func (a *admission) pressure() float64 {
	return float64(a.inflight.Load()) / float64(a.budget)
}
