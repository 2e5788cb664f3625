package dist

import (
	"sync/atomic"
	"time"
)

// chanTransport is the original in-process mesh: one buffered channel per
// worker, requests delivered by channel send. It exists both as the fast
// default for single-process runs and as the reference implementation the
// TCP transport is property-tested against.
type chanTransport struct {
	inboxes []chan *tnsReq
	done    chan struct{}
	frames  atomic.Uint64 // requests delivered + replies delivered, as tcp counts frames
}

func newChanTransport(workers int) *chanTransport {
	t := &chanTransport{
		inboxes: make([]chan *tnsReq, workers),
		done:    make(chan struct{}),
	}
	for i := range t.inboxes {
		t.inboxes[i] = make(chan *tnsReq, 256)
	}
	return t
}

func (t *chanTransport) Inbox(id int32) <-chan *tnsReq { return t.inboxes[id] }
func (t *chanTransport) Done() <-chan struct{}         { return t.done }

// Send puts a private copy of the batch, with a 1-buffered reply channel,
// on dst's queue — so a server answering after we abandoned the attempt
// never blocks and never reads a buffer the requester has since refilled.
func (t *chanTransport) Send(src, dst int32, b *tnsBatch, timeout time.Duration, serve func(*tnsReq)) (ticket, bool) {
	req := &tnsReq{tnsBatch: b.clone(), ch: make(chan []float32, 1)}
	if !deliver(t.inboxes[dst], req, t.inboxes[src], timeout, serve) {
		return ticket{}, false
	}
	t.frames.Add(1)
	return ticket{reply: req.ch}, true
}

func (t *chanTransport) Await(src, dst int32, tk ticket, timeout time.Duration, serve func(*tnsReq)) ([]float32, bool) {
	grads, ok := awaitReply(tk.reply, t.inboxes[src], timeout, serve)
	if ok {
		t.frames.Add(1)
	}
	return grads, ok
}

func (t *chanTransport) SendOneWay(src, dst int32, b *tnsBatch) {
	req := &tnsReq{tnsBatch: b.clone(), ch: make(chan []float32, 1)}
	select {
	case t.inboxes[dst] <- req:
		t.frames.Add(1)
	default:
		// Best-effort by contract: a full peer queue swallows the duplicate.
	}
}

func (t *chanTransport) CloseInboxes() { close(t.done) }
func (t *chanTransport) Close() error  { return nil }

func (t *chanTransport) Stats() TransportStats {
	return TransportStats{FramesSent: t.frames.Load(), FramesReceived: t.frames.Load()}
}
