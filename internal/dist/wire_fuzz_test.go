package dist

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"
)

// byteConn serves a fixed byte stream through the net.Conn interface and
// swallows everything else. Reads return io.EOF once the stream drains,
// so readFrame's deadlines never actually wait — essential for a fuzz
// target that must execute thousands of malformed streams per second
// (net.Pipe would park each truncated frame on a real deadline).
type byteConn struct{ r *bytes.Reader }

func (c *byteConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *byteConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *byteConn) Close() error                     { return nil }
func (c *byteConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *byteConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *byteConn) SetDeadline(time.Time) error      { return nil }
func (c *byteConn) SetReadDeadline(time.Time) error  { return nil }
func (c *byteConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzWireDecode throws arbitrary byte streams at the TCP framing layer:
// readFrame plus both payload decoders. Malformed length prefixes,
// truncated frames and unknown kinds must come back as errors — never a
// panic, and never a payload that disagrees with its prefix. On frames
// that do decode, encode∘decode must reproduce the wire bytes exactly
// (the bit-for-bit round-trip the chan-vs-tcp equivalence tests rely on).
func FuzzWireDecode(f *testing.F) {
	f.Add(encodeReq(7, &tnsBatch{lr: 0.025, counts: []int32{1}, ctxs: []int32{42},
		vecs: []float32{1, -2.5, float32(math.Inf(1))}}))
	f.Add(encodeReq(0, &tnsBatch{}))
	multi := &tnsBatch{lr: 0.01, counts: []int32{3, 0, 2}, ctxs: []int32{5, -1, 9, 7, 7},
		vecs: []float32{1, 2, 3, 4, 5, float32(math.NaN())}}
	f.Add(encodeReq(8, multi))
	f.Add(encodeReq(9, &tnsBatch{counts: []int32{0, 0}, vecs: []float32{1, 2}})) // entries without contexts
	overrun := encodeReq(10, multi)
	binary.LittleEndian.PutUint32(overrun[4+reqHeaderLen:], 1<<20) // first entry claims more contexts than the body holds
	f.Add(overrun)
	entries := encodeReq(11, multi)
	binary.LittleEndian.PutUint32(entries[4+reqHeaderLen-4:], 1<<30) // entry count past the body
	f.Add(entries)
	ragged := encodeReq(12, multi)
	binary.LittleEndian.PutUint32(ragged[4+reqHeaderLen+4:], 1) // one float reinterpreted as a context: 5 floats, 3 entries
	f.Add(ragged)
	f.Add(encodeResp(7, []float32{0.5, float32(math.NaN())}))
	f.Add(encodeResp(1, nil))
	f.Add([]byte{})                             // no header
	f.Add([]byte{9, 0, 0})                      // truncated header
	f.Add([]byte{0, 0, 0, 0})                   // zero-size frame
	f.Add([]byte{255, 255, 255, 255, frameReq}) // 4GB length prefix, 1 byte behind it
	huge := make([]byte, 4, 4+64)
	binary.LittleEndian.PutUint32(huge, maxFramePayload)
	f.Add(append(huge, bytes.Repeat([]byte{1}, 60)...)) // max-size prefix, truncated body
	f.Add([]byte{5, 0, 0, 0, 99, 1, 2, 3, 4})           // unknown kind 99
	bad := encodeReq(3, &tnsBatch{lr: 1, counts: []int32{1}, ctxs: []int32{0}, vecs: []float32{1, 2}})
	bad[4] = frameResp // reply kind wearing a request's length
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(&byteConn{bytes.NewReader(data)})
		if err != nil {
			return // rejected stream: fine, as long as nothing panicked
		}
		if len(payload) == 0 || len(payload) > maxFramePayload {
			t.Fatalf("readFrame returned %d bytes, outside (0, %d]", len(payload), maxFramePayload)
		}
		if want := binary.LittleEndian.Uint32(data); uint32(len(payload)) != want {
			t.Fatalf("payload %d bytes, prefix said %d", len(payload), want)
		}

		id, batch, reqErr := decodeReq(payload)
		if payload[0] != frameReq && reqErr == nil {
			t.Fatalf("decodeReq accepted kind %d", payload[0])
		}
		if reqErr == nil {
			var nctx int
			for _, c := range batch.counts {
				if c < 0 {
					t.Fatalf("decodeReq accepted a negative context count %d", c)
				}
				nctx += int(c)
			}
			if e := len(batch.counts); nctx != len(batch.ctxs) || (e == 0 && len(batch.vecs) != 0) || (e > 0 && len(batch.vecs)%e != 0) {
				t.Fatalf("decodeReq accepted counts %v for %d contexts and %d floats", batch.counts, len(batch.ctxs), len(batch.vecs))
			}
			if again := encodeReq(id, &batch); !bytes.Equal(again[4:], payload) {
				t.Fatalf("request round trip changed the frame:\nin:  %x\nout: %x", payload, again[4:])
			}
		}

		rid, grad, respErr := decodeResp(payload)
		if payload[0] != frameResp && respErr == nil {
			t.Fatalf("decodeResp accepted kind %d", payload[0])
		}
		if respErr == nil {
			if again := encodeResp(rid, grad); !bytes.Equal(again[4:], payload) {
				t.Fatalf("reply round trip changed the frame:\nin:  %x\nout: %x", payload, again[4:])
			}
		}
	})
}
