package dist

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Timeouts internal to the TCP transport. A worker's own socket calls are
// bounded by the attempt's timeout or by RemoteTimeout (Send, inConn.reply),
// and tcpDialTimeout caps a dial further. The other two bound the reader
// goroutines: readIdle is short so they notice a torn-down transport
// quickly (a timeout on a frame BOUNDARY is idleness, not failure), and
// tcpChunkTimeout is what each chunk of the rest of a frame may take.
const (
	tcpDialTimeout  = 250 * time.Millisecond
	tcpReadIdle     = 200 * time.Millisecond
	tcpChunkTimeout = 1 * time.Second

	// frameReadChunk bounds how much readFrame allocates ahead of bytes
	// actually received — the unit of trust extended to a length prefix.
	frameReadChunk = 64 << 10
)

// errIdleFrame marks a read deadline that expired between frames — zero
// bytes consumed, the stream is still aligned and the caller just retries.
var errIdleFrame = errors.New("dist: idle between frames")

// tcpTransport runs the TNS mesh over real loopback sockets: one listener
// per worker, one persistent multiplexed connection per directed (src,dst)
// pair, dialed by the requester on its first Send and again after the
// connection broke. Replies are demultiplexed by request id on the way back.
//
// Every frame leaves on the goroutine that made it: Send writes its
// request, and the worker serving an inbox writes each reply to the
// connection its request came in on. A link's requests come only from its
// source partition's goroutine and a connection's replies only from the
// goroutine serving its destination's inbox (incarnations of a partition
// never overlap), so each socket has one writer by construction and no
// lock is held around I/O. Every write and dial has a deadline no later
// than RemoteTimeout, which DeadAfter exceeds. Transport goroutines only
// accept connections and read frames.
type tcpTransport struct {
	inboxes []chan *tnsReq
	done    chan struct{} // serve phase over (CloseInboxes)
	closed  chan struct{} // full teardown (Close)
	closeMu sync.Mutex
	isDown  bool
	timeout time.Duration // bounds the writes of replies and one-way frames

	listeners []net.Listener
	links     [][]*peerLink // [src][dst]; nil on the diagonal
	wg        sync.WaitGroup

	framesOut, framesIn atomic.Uint64
	bytesOut, bytesIn   atomic.Uint64
	dials, reconnects   atomic.Uint64
	lateReplies         atomic.Uint64
}

// peerLink is one directed client edge src→dst: the connection Send writes
// to, and the pending table matching reply frames back to the tickets Send
// issued.
type peerLink struct {
	t    *tcpTransport
	addr string // dst's listen address

	connMu sync.Mutex
	conn   net.Conn
	dialed bool // a connection existed at least once (reconnect accounting)

	nextID  atomic.Uint64
	pendMu  sync.Mutex
	pending map[uint64]chan []float32
}

// newTCPTransport binds one listener per worker. timeout bounds the socket
// writes a worker makes outside an attempt — replies and one-way frames;
// the engine passes RemoteTimeout.
func newTCPTransport(workers int, timeout time.Duration) (*tcpTransport, error) {
	t := &tcpTransport{
		inboxes: make([]chan *tnsReq, workers),
		done:    make(chan struct{}),
		closed:  make(chan struct{}),
		timeout: timeout,
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
			t.links[s][d] = &peerLink{
				t:       t,
				addr:    t.listeners[d].Addr().String(),
				pending: make(map[uint64]chan []float32),
			}
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

// Sever cuts the established src→dst connection, if any. The link's next
// Send redials; in-flight requests on the old connection are lost and time
// out at the caller.
func (t *tcpTransport) Sever(src, dst int32) {
	if l := t.links[src][dst]; l != nil {
		l.dropConn(nil)
	}
}

// Send writes the encoded request — the copy of the batch the Transport
// contract asks for — to the link's connection, dialing it first if the
// link has none. Dial and write are bounded by timeout; either failing
// fails the attempt, and worker.await retries it after a backoff. The reply
// slot is registered before the write, since the reply may come back
// before the write returns.
func (t *tcpTransport) Send(src, dst int32, b *tnsBatch, timeout time.Duration, _ func(*tnsReq)) (ticket, bool) {
	l := t.links[src][dst]
	conn := l.current()
	if conn == nil {
		if conn = l.dial(timeout); conn == nil {
			return ticket{}, false
		}
	}
	tk := ticket{reply: make(chan []float32, 1), id: l.nextID.Add(1)}
	l.pendMu.Lock()
	l.pending[tk.id] = tk.reply
	l.pendMu.Unlock()
	if !t.write(conn, encodeReq(tk.id, b), timeout) {
		l.dropConn(conn)
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

// SendOneWay writes the frame on the link's established connection and
// never dials: a link with no connection drops it. The id is never
// registered in pending, so the reply — if one comes back — is discarded
// as late.
func (t *tcpTransport) SendOneWay(src, dst int32, b *tnsBatch) {
	l := t.links[src][dst]
	if conn := l.current(); conn != nil && !t.write(conn, encodeReq(l.nextID.Add(1), b), t.timeout) {
		l.dropConn(conn)
	}
}

// write puts one whole frame on conn within timeout and counts it. A
// failed write may have left part of the frame on the stream, so the
// caller must give the connection up.
func (t *tcpTransport) write(conn net.Conn, frame []byte, timeout time.Duration) bool {
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return false
	}
	if _, err := conn.Write(frame); err != nil {
		return false
	}
	t.framesOut.Add(1)
	t.bytesOut.Add(uint64(len(frame)))
	return true
}

// current returns the link's live connection, or nil.
func (l *peerLink) current() net.Conn {
	l.connMu.Lock()
	defer l.connMu.Unlock()
	return l.conn
}

// dial connects the link, bounded by timeout and tcpDialTimeout, and starts
// its reply reader. A loopback connect completes in the kernel, so this
// costs the requester one syscall round, not a wait on the peer. It returns
// nil if the dial fails or the transport is closing.
func (l *peerLink) dial(timeout time.Duration) net.Conn {
	c, err := net.DialTimeout("tcp", l.addr, min(timeout, tcpDialTimeout))
	if err != nil {
		return nil
	}
	l.connMu.Lock()
	defer l.connMu.Unlock()
	// Checked under connMu, which Close's dropConn takes after closing
	// t.closed: either Close sees this connection or this sees Close.
	if l.t.closing() {
		_ = c.Close() // never used (error deliberately dropped)
		return nil
	}
	l.conn = c
	if l.dialed {
		l.t.reconnects.Add(1)
	}
	l.dialed = true
	l.t.dials.Add(1)
	l.t.wg.Add(1)
	go l.readLoop(c)
	return c
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
		l.conn = nil
	}
	l.connMu.Unlock()
	if victim != nil {
		_ = victim.Close() // closing a possibly already-broken socket (error deliberately dropped)
	}
}

// readLoop demultiplexes reply frames off one client connection into the
// pending table. It exits when the connection breaks (severed, peer gone,
// transport closed); the link's next Send dials a fresh one.
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
// own reader goroutine.
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

// serveConn reads the requests of one inbound connection and delivers them
// to the worker's inbox; it does not wait for their replies, which the
// serving worker writes back through inConn.
func (t *tcpTransport) serveConn(dst int32, conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		_ = conn.Close() // teardown of a connection that may already be broken (error deliberately dropped)
	}()
	in := &inConn{t: t, conn: conn}
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
		select {
		case t.inboxes[dst] <- &tnsReq{tnsBatch: batch, in: in, id: id}:
		case <-t.done:
			// Serve phase over: the request is dropped, not replied to.
		case <-t.closed:
			return
		}
	}
}

// inConn is the server half of one connection, as a request delivered
// from it carries it: where its reply goes.
type inConn struct {
	t    *tcpTransport
	conn net.Conn
}

// reply writes one reply frame. Only the goroutine serving the owner's
// inbox calls it, so the connection's replies have one writer. A failed
// write ends the connection rather than leave a partial frame on it: the
// requester's reader sees the stream close and its Await times out.
func (c *inConn) reply(id uint64, grads []float32) {
	if !c.t.write(c.conn, encodeResp(id, grads), c.t.timeout) {
		_ = c.conn.Close() // the stream is unusable either way (error deliberately dropped)
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
		if err := conn.SetReadDeadline(time.Now().Add(tcpChunkTimeout)); err != nil {
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
