package dist

import (
	"fmt"
	"time"
)

// Transport moves TNS requests between workers. The engine owns exactly
// one; every worker both calls through it (requester role) and drains its
// inbox (server role). Two implementations ship: chanTransport keeps the
// original in-process channel mesh, tcpTransport runs the same protocol
// over real loopback sockets with length-prefixed frames. A third,
// faultTransport, decorates either with seeded wire faults for the chaos
// harness.
//
// One remote TNS attempt is two calls: Send delivers the request and
// returns a ticket, Await redeems it for the reply. The requester scans its
// next sequence in between, so the peer serves the request while the
// requester works instead of while it waits. The contract that keeps the
// mesh deadlock-free is unchanged from the channel days: a worker waiting
// inside Send or Await keeps serving its own inbox via the serve callback,
// so two workers waiting on each other always make progress. A tcp socket
// call does not wait for a peer worker to act — the peer's transport
// goroutines read every socket into its inbox — and a deadline bounds it
// even when that inbox is full. An attempt is
// ONE delivery — retry, backoff and fencing policy stay in the worker
// (worker.await), which is what lets the chaos invariants (exact pair
// accounting, deterministic replay) hold verbatim whatever the wire does
// underneath.
//
// A delivered reply is always taken: Await looks for it before it looks at
// its deadline, so an attempt the peer answered never fails because the
// requester was busy scanning when the answer came.
type Transport interface {
	// Inbox returns worker id's request queue. Inboxes are never closed
	// (a late TCP delivery must never panic on a closed channel); end of
	// service is signalled by Done instead. Whoever takes a request from an
	// inbox answers it once, through its reply method, on the goroutine
	// that took it — over tcp that goroutine writes the reply frame.
	Inbox(id int32) <-chan *tnsReq

	// Done is closed by CloseInboxes. A worker's final serve loop selects
	// on Inbox and Done, draining opportunistically after Done closes.
	Done() <-chan struct{}

	// Send delivers one attempt of a batch from src to dst and returns
	// (ticket, true) once the request is on its way, (_, false) when it
	// cannot be within timeout. Over chan it blocks only while dst's queue
	// is full, serving src's own inbox meanwhile; over tcp it writes the
	// frame itself (dialing first if the link has no connection), each
	// socket call bounded by timeout, and a failed dial or write fails the
	// attempt. The batch is the caller's again once Send returns: the
	// transport ships a copy.
	Send(src, dst int32, b *tnsBatch, timeout time.Duration, serve func(*tnsReq)) (ticket, bool)

	// Await returns the gradients (one per entry) answering a ticket Send
	// issued to src for dst. A reply already delivered is taken without
	// blocking, whatever timeout says; otherwise it waits up to timeout,
	// serving src's inbox, and returns (nil, false) when the deadline
	// passes. A failed Await leaves no obligation on the callee: a reply
	// arriving later is discarded.
	Await(src, dst int32, t ticket, timeout time.Duration, serve func(*tnsReq)) ([]float32, bool)

	// SendOneWay ships a request whose reply nobody awaits — a duplicate
	// delivery on the wire. Best-effort: a full queue, or a link with no
	// established connection, drops it silently. It must never block on a
	// queue or a dial.
	SendOneWay(src, dst int32, b *tnsBatch)

	// CloseInboxes ends the serve phase by closing Done. Safe to call
	// once, after every scan role has finished (no new Sends can start).
	CloseInboxes()

	// Close tears the transport down (listeners, connections, goroutines).
	// Counters behind Stats stay readable after Close.
	Close() error

	// Stats returns cumulative wire counters, process-wide (both sides of
	// every link). The channel transport counts frames only; bytes are
	// zero because nothing is serialized.
	Stats() TransportStats
}

// ticket names one delivered attempt: the reply channel its answer lands
// on (1-buffered, so a server answering an abandoned attempt never blocks)
// and, over tcp, the request id its reply slot is registered under.
type ticket struct {
	reply chan []float32
	id    uint64
}

// deliver puts req on q, serving own while q is full. It returns false
// when timeout expires first. The common case — room in the queue — costs
// no timer.
func deliver(q chan<- *tnsReq, req *tnsReq, own <-chan *tnsReq, timeout time.Duration, serve func(*tnsReq)) bool {
	select {
	case q <- req:
		return true
	default:
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case q <- req:
			return true
		case in := <-own:
			serve(in)
		case <-timer.C:
			return false
		}
	}
}

// awaitReply takes the reply on c, serving own while it is not there yet.
// A delivered reply wins over an expired deadline: it is looked for first,
// and once more when the deadline fires.
func awaitReply(c <-chan []float32, own <-chan *tnsReq, timeout time.Duration, serve func(*tnsReq)) ([]float32, bool) {
	select {
	case grads := <-c:
		return grads, true
	default:
	}
	if timeout <= 0 {
		return nil, false
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case grads := <-c:
			return grads, true
		case in := <-own:
			serve(in)
		case <-timer.C:
			select {
			case grads := <-c:
				return grads, true
			default:
				return nil, false
			}
		}
	}
}

// Severable is implemented by transports whose links can be cut mid-run
// (an established connection closed under the peers' feet). The fault
// decorator uses it for sever injection; the transport's reconnect path
// is what heals it.
type Severable interface {
	Sever(src, dst int32)
}

// TransportStats are cumulative wire-level counters. They are
// observability figures shaped by timing (retries, reconnects), like
// Stats.Retries — deliberately NOT part of the deterministic replay
// contract.
type TransportStats struct {
	FramesSent     uint64 // frames written to the wire (requests + replies)
	FramesReceived uint64 // frames read off the wire
	BytesSent      uint64 // bytes written, length prefixes included
	BytesReceived  uint64 // bytes read
	Dials          uint64 // successful connection establishments
	Reconnects     uint64 // successful dials after a link previously had a connection
	LateReplies    uint64 // replies that arrived after their request was abandoned
}

// Transport selection names for Options.Transport.
const (
	TransportChan = "chan"
	TransportTCP  = "tcp"
)

// newTransport builds the transport Options ask for, wrapping it in the
// fault decorator when the plan injects wire faults.
func newTransport(opt *Options) (Transport, error) {
	var (
		base Transport
		err  error
	)
	switch opt.Transport {
	case "", TransportChan:
		base = newChanTransport(opt.Workers)
	case TransportTCP:
		base, err = newTCPTransport(opt.Workers, opt.remoteTimeout())
		if err != nil {
			return nil, fmt.Errorf("dist: tcp transport: %w", err)
		}
	default:
		return nil, fmt.Errorf("dist: unknown transport %q (want %q or %q)",
			opt.Transport, TransportChan, TransportTCP)
	}
	if opt.Faults.hasWireFaults() {
		base = newFaultTransport(base, opt.Workers, opt.Seed, opt.Faults)
	}
	return base, nil
}
