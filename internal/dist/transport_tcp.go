package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sisg/internal/rng"
)

// Timeouts internal to the TCP transport. They bound single socket
// operations, not the TNS attempt — the attempt's deadline lives in the
// worker and is passed to Send and Await. readIdle is deliberately short
// so reader goroutines notice a torn-down transport quickly; a timeout on
// a frame BOUNDARY is idleness, not failure.
const (
	tcpDialTimeout  = 250 * time.Millisecond
	tcpWriteTimeout = 1 * time.Second
	tcpReadIdle     = 200 * time.Millisecond

	// Reconnect backoff: base × 2^attempt, jittered ±50%, capped at 64×.
	tcpRedialBase     = 1 * time.Millisecond
	tcpRedialMaxShift = 6

	// frameReadChunk bounds how much readFrame allocates ahead of bytes
	// actually received — the unit of trust extended to a length prefix.
	frameReadChunk = 64 << 10
)

// errIdleFrame marks a read deadline that expired between frames — zero
// bytes consumed, the stream is still aligned and the caller just retries.
var errIdleFrame = errors.New("dist: idle between frames")

// tcpTransport runs the TNS mesh over real loopback sockets: one listener
// per worker, one persistent multiplexed connection per directed (src,dst)
// pair, dialed lazily and redialed with jittered backoff when severed.
// Frames are written in batches (everything queued drains through one
// bufio flush) and demultiplexed by request id on the way back.
//
// All socket work happens on transport-owned goroutines (per-link writers
// and readers, per-connection server handlers); worker goroutines only
// touch channels, so a stalled or reconnecting link can never stop a
// worker's heartbeat.
type tcpTransport struct {
	inboxes []chan *tnsReq
	done    chan struct{} // serve phase over (CloseInboxes)
	closed  chan struct{} // full teardown (Close)
	closeMu sync.Mutex
	isDown  bool

	listeners []net.Listener
	links     [][]*peerLink // [src][dst]; nil on the diagonal
	wg        sync.WaitGroup

	framesOut, framesIn atomic.Uint64
	bytesOut, bytesIn   atomic.Uint64
	dials, reconnects   atomic.Uint64
	lateReplies         atomic.Uint64
}

// peerLink is one directed client edge src→dst: a frame queue drained by a
// dedicated writer goroutine, a connection (re)dialed on demand, and the
// pending table matching reply frames back to the tickets Send issued.
type peerLink struct {
	t    *tcpTransport
	addr func() string // dst's listen address (resolved after all listeners bind)

	out chan []byte // encoded frames awaiting the writer

	connMu sync.Mutex
	conn   net.Conn
	bw     *bufio.Writer
	dialed bool // a connection existed at least once (reconnect accounting)

	nextID  atomic.Uint64
	pendMu  sync.Mutex
	pending map[uint64]chan []float32

	backoff *rng.RNG // jitter stream, touched only by the writer goroutine
}

func newTCPTransport(workers int, seed uint64) (*tcpTransport, error) {
	t := &tcpTransport{
		inboxes: make([]chan *tnsReq, workers),
		done:    make(chan struct{}),
		closed:  make(chan struct{}),
	}
	for i := range t.inboxes {
		t.inboxes[i] = make(chan *tnsReq, 256)
	}
	t.listeners = make([]net.Listener, workers)
	for i := range t.listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range t.listeners[:i] {
				_ = l.Close() // best-effort unwind of a failed construction (error deliberately dropped)
			}
			return nil, err
		}
		t.listeners[i] = ln
	}
	t.links = make([][]*peerLink, workers)
	for s := range t.links {
		t.links[s] = make([]*peerLink, workers)
		for d := range t.links[s] {
			if s == d {
				continue
			}
			dst := d
			l := &peerLink{
				t:       t,
				addr:    func() string { return t.listeners[dst].Addr().String() },
				out:     make(chan []byte, 256),
				pending: make(map[uint64]chan []float32),
				backoff: rng.New(seed ^ (0x2545f4914f6cdd1d * uint64(s*workers+d+1))),
			}
			t.links[s][d] = l
			t.wg.Add(1)
			go l.writeLoop()
		}
	}
	for i, ln := range t.listeners {
		t.wg.Add(1)
		go t.acceptLoop(int32(i), ln)
	}
	return t, nil
}

func (t *tcpTransport) Inbox(id int32) <-chan *tnsReq { return t.inboxes[id] }
func (t *tcpTransport) Done() <-chan struct{}         { return t.done }
func (t *tcpTransport) CloseInboxes()                 { close(t.done) }

func (t *tcpTransport) Close() error {
	t.closeMu.Lock()
	if t.isDown {
		t.closeMu.Unlock()
		return nil
	}
	t.isDown = true
	close(t.closed)
	t.closeMu.Unlock()
	for _, ln := range t.listeners {
		_ = ln.Close() // teardown; the accept loop exits on any error (error deliberately dropped)
	}
	for _, row := range t.links {
		for _, l := range row {
			if l != nil {
				l.dropConn(nil)
			}
		}
	}
	t.wg.Wait()
	return nil
}

func (t *tcpTransport) Stats() TransportStats {
	return TransportStats{
		FramesSent:     t.framesOut.Load(),
		FramesReceived: t.framesIn.Load(),
		BytesSent:      t.bytesOut.Load(),
		BytesReceived:  t.bytesIn.Load(),
		Dials:          t.dials.Load(),
		Reconnects:     t.reconnects.Load(),
		LateReplies:    t.lateReplies.Load(),
	}
}

// Sever cuts the established src→dst connection, if any. The link's
// writer redials with jittered backoff on the next frame; in-flight
// requests on the old connection are lost and time out at the caller.
func (t *tcpTransport) Sever(src, dst int32) {
	if l := t.links[src][dst]; l != nil {
		l.dropConn(nil)
	}
}

// Send registers a reply slot and queues the encoded request for the link
// writer, serving src's own inbox while the queue is full. The frame is
// encoded up front: it is the copy of the batch the Transport contract asks
// for.
func (t *tcpTransport) Send(src, dst int32, b *tnsBatch, timeout time.Duration, serve func(*tnsReq)) (ticket, bool) {
	l := t.links[src][dst]
	tk := ticket{reply: make(chan []float32, 1), id: l.nextID.Add(1)}
	l.pendMu.Lock()
	l.pending[tk.id] = tk.reply
	l.pendMu.Unlock()
	if !deliver(l.out, encodeReq(tk.id, b), t.inboxes[src], timeout, serve) {
		l.forget(tk.id)
		return ticket{}, false
	}
	return tk, true
}

// Await takes the demultiplexed gradients, serving src's own inbox while
// they are not there yet. A failed Await unregisters the reply slot, so a
// reply arriving later is counted as late and dropped.
func (t *tcpTransport) Await(src, dst int32, tk ticket, timeout time.Duration, serve func(*tnsReq)) ([]float32, bool) {
	grads, ok := awaitReply(tk.reply, t.inboxes[src], timeout, serve)
	if !ok {
		t.links[src][dst].forget(tk.id)
	}
	return grads, ok
}

func (l *peerLink) forget(id uint64) {
	l.pendMu.Lock()
	delete(l.pending, id)
	l.pendMu.Unlock()
}

func (t *tcpTransport) SendOneWay(src, dst int32, b *tnsBatch) {
	l := t.links[src][dst]
	// The id is never registered in pending, so the reply — if one comes
	// back — is discarded as late. Best-effort: a full writer queue drops
	// the frame rather than block the caller.
	frame := encodeReq(l.nextID.Add(1), b)
	select {
	case l.out <- frame:
	default:
	}
}

// writeLoop drains the link's frame queue onto the connection. One frame
// wakes it; everything queued behind rides the same bufio flush — the
// write batching that keeps a 256-deep retry burst to a handful of
// syscalls.
func (l *peerLink) writeLoop() {
	defer l.t.wg.Done()
	for {
		select {
		case <-l.t.closed:
			return
		case frame := <-l.out:
			l.writeBatch(frame)
		}
	}
}

func (l *peerLink) writeBatch(frame []byte) {
	conn, bw := l.ensureConn()
	if conn == nil {
		return // transport closed mid-dial; the frame is lost, the caller's deadline covers it
	}
	if err := conn.SetWriteDeadline(time.Now().Add(tcpWriteTimeout)); err != nil {
		l.dropConn(conn)
		return
	}
	for {
		if _, err := bw.Write(frame); err != nil {
			l.dropConn(conn)
			return
		}
		l.t.framesOut.Add(1)
		l.t.bytesOut.Add(uint64(len(frame)))
		select {
		case frame = <-l.out:
		default:
			if err := bw.Flush(); err != nil {
				l.dropConn(conn)
			}
			return
		}
	}
}

// ensureConn returns the link's live connection, dialing (and redialing,
// with seeded jittered exponential backoff) until it has one or the
// transport closes. Runs only on the writer goroutine.
func (l *peerLink) ensureConn() (net.Conn, *bufio.Writer) {
	l.connMu.Lock()
	if l.conn != nil {
		c, bw := l.conn, l.bw
		l.connMu.Unlock()
		return c, bw
	}
	l.connMu.Unlock()
	for attempt := 0; ; attempt++ {
		select {
		case <-l.t.closed:
			return nil, nil
		default:
		}
		c, err := net.DialTimeout("tcp", l.addr(), tcpDialTimeout)
		if err == nil {
			bw := bufio.NewWriter(c)
			l.connMu.Lock()
			l.conn, l.bw = c, bw
			if l.dialed {
				l.t.reconnects.Add(1)
			}
			l.dialed = true
			l.connMu.Unlock()
			l.t.dials.Add(1)
			l.t.wg.Add(1)
			go l.readLoop(c)
			return c, bw
		}
		shift := attempt
		if shift > tcpRedialMaxShift {
			shift = tcpRedialMaxShift
		}
		d := time.Duration(float64(tcpRedialBase<<shift) * (0.5 + l.backoff.Float64()))
		select {
		case <-l.t.closed:
			return nil, nil
		case <-time.After(d):
		}
	}
}

// dropConn detaches and closes a connection. With c == nil it drops
// whatever connection is current (Sever, Close); with c non-nil it drops
// only if c is still current, so a stale reader can never kill its
// successor.
func (l *peerLink) dropConn(c net.Conn) {
	l.connMu.Lock()
	victim := l.conn
	if c != nil && victim != c {
		victim = c // stale: close it, but leave the current connection alone
	} else {
		l.conn, l.bw = nil, nil
	}
	l.connMu.Unlock()
	if victim != nil {
		_ = victim.Close() // closing a possibly already-broken socket (error deliberately dropped)
	}
}

// readLoop demultiplexes reply frames off one client connection into the
// pending table. It exits when the connection breaks (severed, peer gone,
// transport closed); the writer's next ensureConn starts a fresh one.
func (l *peerLink) readLoop(conn net.Conn) {
	defer l.t.wg.Done()
	for {
		payload, err := readFrame(conn)
		if err != nil {
			if errors.Is(err, errIdleFrame) && !l.t.closing() {
				continue
			}
			l.dropConn(conn)
			return
		}
		l.t.framesIn.Add(1)
		l.t.bytesIn.Add(uint64(4 + len(payload)))
		if len(payload) == 0 || payload[0] != frameResp {
			l.dropConn(conn) // protocol violation: kill the stream
			return
		}
		id, grad, err := decodeResp(payload)
		if err != nil {
			l.dropConn(conn)
			return
		}
		l.pendMu.Lock()
		ch, ok := l.pending[id]
		if ok {
			delete(l.pending, id)
		}
		l.pendMu.Unlock()
		if !ok {
			l.t.lateReplies.Add(1)
			continue
		}
		ch <- grad // 1-buffered and we are the sole sender post-delete: never blocks
	}
}

func (t *tcpTransport) closing() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// acceptLoop owns worker id's listener: every inbound connection gets its
// own handler goroutine.
func (t *tcpTransport) acceptLoop(id int32, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed: teardown
		}
		t.wg.Add(1)
		go t.serveConn(id, conn)
	}
}

// serveConn is the server half of one connection: decode a request,
// deliver it to the worker's inbox, await the gradients and write the
// reply. Replies are flushed per request — the server cannot know when
// the next request comes, and a parked reply is a stalled caller.
func (t *tcpTransport) serveConn(dst int32, conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		_ = conn.Close() // teardown of a connection that may already be broken (error deliberately dropped)
	}()
	bw := bufio.NewWriter(conn)
	for {
		payload, err := readFrame(conn)
		if err != nil {
			if errors.Is(err, errIdleFrame) && !t.closing() {
				continue
			}
			return
		}
		t.framesIn.Add(1)
		t.bytesIn.Add(uint64(4 + len(payload)))
		if len(payload) == 0 || payload[0] != frameReq {
			return
		}
		id, batch, err := decodeReq(payload)
		if err != nil {
			return
		}
		req := &tnsReq{tnsBatch: batch, reply: make(chan []float32, 1)}
		select {
		case t.inboxes[dst] <- req:
		case <-t.done:
			continue // serve phase over: the request is dropped, not replied to
		case <-t.closed:
			return
		}
		var grads []float32
		select {
		case grads = <-req.reply:
		case <-t.closed:
			return // the worker will never answer (teardown); drop the connection
		}
		resp := encodeResp(id, grads)
		if err := conn.SetWriteDeadline(time.Now().Add(tcpWriteTimeout)); err != nil {
			return
		}
		if _, err := bw.Write(resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		t.framesOut.Add(1)
		t.bytesOut.Add(uint64(len(resp)))
	}
}

// readFrame reads one length-prefixed payload. A deadline that expires on
// a frame boundary (zero bytes in) returns errIdleFrame — the stream is
// still aligned and the caller may retry; a timeout mid-frame is a
// desynchronized stream and fatal.
func readFrame(conn net.Conn) ([]byte, error) {
	var hdr [4]byte
	if err := conn.SetReadDeadline(time.Now().Add(tcpReadIdle)); err != nil {
		return nil, err
	}
	if n, err := io.ReadFull(conn, hdr[:]); err != nil {
		if n == 0 && isTimeout(err) {
			return nil, errIdleFrame
		}
		return nil, err
	}
	size := binary.LittleEndian.Uint32(hdr[:])
	if size == 0 || size > maxFramePayload {
		return nil, errors.New("dist: frame size out of bounds")
	}
	// Read the payload in bounded chunks, growing the buffer as bytes
	// actually arrive: a hostile 16MB length prefix on a stream that then
	// stalls or closes costs one chunk of memory, not maxFramePayload.
	// The deadline is re-armed per chunk, so a slow sender of a large
	// frame only has to keep the pipe moving, while a mid-frame stall is
	// still fatal within one chunk's window.
	buf := make([]byte, 0, min(int(size), frameReadChunk))
	for len(buf) < int(size) {
		n := min(int(size)-len(buf), frameReadChunk)
		if err := conn.SetReadDeadline(time.Now().Add(tcpWriteTimeout)); err != nil {
			return nil, err
		}
		off := len(buf)
		buf = slices.Grow(buf, n)[:off+n]
		if _, err := io.ReadFull(conn, buf[off:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
