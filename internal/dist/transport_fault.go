package dist

import (
	"sync"
	"sync/atomic"
	"time"

	"sisg/internal/rng"
)

// faultTransport decorates a real transport with seeded wire faults:
// request drops, fixed delays, duplicate deliveries, severed connections
// and one-way partitions. It sits between the worker and the transport, so
// the worker's retry/fencing policy sees faults exactly as it would see a
// misbehaving network — a request that never answers, answers late, or
// arrives twice.
//
// Determinism: probabilistic decisions (drop, delay, duplicate) draw from
// one RNG stream per REQUESTER, guarded by a mutex because replacement
// incarnations of a worker are different goroutines. Positional triggers
// (severs, partitions) fire on exact per-link send counts. Neither
// touches the training RNGs, and no fault can change the deterministic
// accounting — a faulted request only costs Retries, which is excluded
// from the replay contract by design.
type faultTransport struct {
	Transport
	plan  FaultPlan
	mu    []sync.Mutex
	r     []*rng.RNG
	sends [][]atomic.Uint64 // [src][dst] requests attempted on the link
}

func newFaultTransport(base Transport, workers int, seed uint64, plan FaultPlan) *faultTransport {
	f := &faultTransport{
		Transport: base,
		plan:      plan,
		mu:        make([]sync.Mutex, workers),
		r:         make([]*rng.RNG, workers),
		sends:     make([][]atomic.Uint64, workers),
	}
	for i := range f.r {
		f.r[i] = rng.New(seed ^ (0x8ebc6af09c88c6e3 * uint64(i+1)))
		f.sends[i] = make([]atomic.Uint64, workers)
	}
	return f
}

// Send applies the request's faults before the real delivery. A dropped or
// blackholed request is "sent" into the void: the requester gets a ticket
// no reply will ever redeem, and cannot tell a partition from a slow peer
// until its Await deadline passes. A delayed request holds the sender for
// the delay (serving all the while) out of the attempt's deadline.
func (f *faultTransport) Send(src, dst int32, b *tnsBatch, timeout time.Duration, serve func(*tnsReq)) (ticket, bool) {
	k := f.sends[src][dst].Add(1)
	for _, s := range f.plan.Wire.Severs {
		if int32(s.From) == src && int32(s.To) == dst && s.AtSends == k {
			if sv, ok := f.Transport.(Severable); ok {
				sv.Sever(src, dst)
			}
		}
	}
	if f.partitioned(src, dst, k) {
		return ticket{reply: make(chan []float32, 1)}, true
	}
	drop, dup, delay := f.decide(src)
	if drop {
		return ticket{reply: make(chan []float32, 1)}, true
	}
	if delay > 0 {
		if delay >= timeout {
			f.waitServing(src, timeout, serve)
			return ticket{}, false
		}
		f.waitServing(src, delay, serve)
		timeout -= delay
	}
	if dup {
		f.Transport.SendOneWay(src, dst, b)
	}
	return f.Transport.Send(src, dst, b, timeout, serve)
}

// decide draws this request's probabilistic faults from src's stream.
// Draw order is fixed (drop, delay, dup) and each fraction gates its own
// draw, so enabling one fault never shifts another's stream.
func (f *faultTransport) decide(src int32) (drop bool, dup bool, delay time.Duration) {
	needsDrop := f.plan.DropFraction > 0
	needsDelay := f.plan.Wire.DelayFraction > 0
	needsDup := f.plan.Wire.DupFraction > 0
	if !needsDrop && !needsDelay && !needsDup {
		return false, false, 0
	}
	f.mu[src].Lock()
	r := f.r[src]
	if needsDrop {
		drop = r.Float64() < f.plan.DropFraction
	}
	if needsDelay && r.Float64() < f.plan.Wire.DelayFraction {
		delay = f.plan.Wire.Delay
	}
	if needsDup {
		dup = r.Float64() < f.plan.Wire.DupFraction
	}
	f.mu[src].Unlock()
	return drop, dup, delay
}

func (f *faultTransport) partitioned(src, dst int32, k uint64) bool {
	for _, p := range f.plan.Wire.Partitions {
		if int32(p.From) != src || int32(p.To) != dst {
			continue
		}
		window := p.ForSends
		if window == 0 {
			window = 1
		}
		if k >= p.AtSends && k < p.AtSends+window {
			return true
		}
	}
	return false
}

// waitServing blocks for d while serving src's own inbox — the fault
// path must honor the same deadlock-freedom contract as a real Send.
func (f *faultTransport) waitServing(src int32, d time.Duration, serve func(*tnsReq)) {
	own := f.Transport.Inbox(src)
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		select {
		case in := <-own:
			serve(in)
		case <-timer.C:
			return
		}
	}
}

// Sever passes through so chaos code can cut links on a decorated
// transport directly.
func (f *faultTransport) Sever(src, dst int32) {
	if sv, ok := f.Transport.(Severable); ok {
		sv.Sever(src, dst)
	}
}
