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
// The contract that keeps the mesh deadlock-free is unchanged from the
// channel days: a worker blocked inside Call keeps serving its own inbox
// via the serve callback, so two workers calling each other always make
// progress. Call is ONE delivery attempt — retry, backoff, degrade and
// fencing policy stay in worker.remoteCall, which is what lets the chaos
// invariants ("DroppedPairs==Degraded==0 under recovery") hold verbatim
// whatever the wire does underneath.
type Transport interface {
	// Inbox returns worker id's request queue. Inboxes are never closed
	// (a late TCP delivery must never panic on a closed channel); end of
	// service is signalled by Done instead.
	Inbox(id int32) <-chan *tnsReq

	// Done is closed by CloseInboxes. A worker's final serve loop selects
	// on Inbox and Done, draining opportunistically after Done closes.
	Done() <-chan struct{}

	// Call performs one remote TNS attempt from src to dst: deliver the
	// batch, await its gradients (one per entry). It serves src's own
	// inbox through the serve callback while blocked, returns (grads,
	// true) on success and (nil, false) when timeout expires or abort
	// closes. abort may be nil (never fires). The batch is the caller's
	// again once Call returns: the transport ships a copy. A failed Call
	// leaves no obligation on the callee: a reply arriving after Call
	// returned is discarded.
	Call(src, dst int32, b *tnsBatch, timeout time.Duration,
		abort <-chan struct{}, serve func(*tnsReq)) ([]float32, bool)

	// SendOneWay ships a request whose reply nobody awaits — a duplicate
	// delivery on the wire. Best-effort: a full queue or broken link drops
	// it silently. It must never block.
	SendOneWay(src, dst int32, b *tnsBatch)

	// CloseInboxes ends the serve phase by closing Done. Safe to call
	// once, after every scan role has finished (no new Calls can start).
	CloseInboxes()

	// Close tears the transport down (listeners, connections, goroutines).
	// Counters behind Stats stay readable after Close.
	Close() error

	// Stats returns cumulative wire counters, process-wide (both sides of
	// every link). The channel transport counts frames only; bytes are
	// zero because nothing is serialized.
	Stats() TransportStats
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
		base, err = newTCPTransport(opt.Workers, opt.Seed)
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
