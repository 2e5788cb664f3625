package dist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire format of the TCP transport. Every frame is length-prefixed:
//
//	uint32  payload length (little-endian, excludes the prefix itself)
//	payload:
//	  byte    kind (1 = request, 2 = reply)
//	  uint64  request id (unique per (src,dst) link)
//	  request:  float32 lr | uint32 entries | int32 counts[entries] |
//	            int32 ctxs[sum of counts] | float32 vecs[entries × dim]
//	  reply:    float32 grads[entries × dim]
//
// dim is not on the wire: it is whatever the floats divide into. Everything
// is little-endian and float32 bits are shipped verbatim, so a vector
// survives the round trip bit-for-bit — the property the chan-vs-tcp
// equivalence tests lean on.
const (
	frameReq  = 1
	frameResp = 2

	// reqHeaderLen is kind + id + lr + entries; respHeaderLen is kind + id.
	reqHeaderLen  = 1 + 8 + 4 + 4
	respHeaderLen = 1 + 8

	// maxFramePayload bounds a single payload; anything larger means a
	// desynchronized or hostile stream and kills the connection.
	maxFramePayload = 16 << 20
)

// encodeReq serializes one TNS request into a self-contained frame
// (prefix included) ready for a single Write.
func encodeReq(id uint64, b *tnsBatch) []byte {
	n := reqHeaderLen + 4*(len(b.counts)+len(b.ctxs)+len(b.vecs))
	p := make([]byte, 4+n)
	binary.LittleEndian.PutUint32(p, uint32(n))
	p[4] = frameReq
	binary.LittleEndian.PutUint64(p[5:], id)
	binary.LittleEndian.PutUint32(p[13:], math.Float32bits(b.lr))
	binary.LittleEndian.PutUint32(p[17:], uint32(len(b.counts)))
	body := p[4+reqHeaderLen:]
	putInts(body, b.counts)
	putInts(body[4*len(b.counts):], b.ctxs)
	putFloats(body[4*(len(b.counts)+len(b.ctxs)):], b.vecs)
	return p
}

// decodeReq parses a request payload. The body must be exactly what the
// counts announce: entries counts, their sum of contexts, and a float
// block that divides evenly among the entries.
func decodeReq(p []byte) (id uint64, b tnsBatch, err error) {
	if len(p) < reqHeaderLen || (len(p)-reqHeaderLen)%4 != 0 {
		return 0, b, fmt.Errorf("dist: malformed request frame (%d bytes)", len(p))
	}
	if p[0] != frameReq {
		return 0, b, fmt.Errorf("dist: request frame has kind %d", p[0])
	}
	id = binary.LittleEndian.Uint64(p[1:])
	b.lr = math.Float32frombits(binary.LittleEndian.Uint32(p[9:]))
	entries := uint64(binary.LittleEndian.Uint32(p[13:]))
	body := p[reqHeaderLen:]
	words := uint64(len(body) / 4)
	if entries > words {
		return 0, b, fmt.Errorf("dist: request announces %d entries in a %d-word body", entries, words)
	}
	b.counts = make([]int32, entries)
	var nctx uint64
	for i := range b.counts {
		c := int32(binary.LittleEndian.Uint32(body[4*i:]))
		if c < 0 {
			return 0, b, fmt.Errorf("dist: request entry %d has %d contexts", i, c)
		}
		b.counts[i] = c
		nctx += uint64(c)
	}
	if nctx > words-entries {
		return 0, b, fmt.Errorf("dist: request announces %d contexts in a %d-word body", nctx, words)
	}
	floats := words - entries - nctx
	if (entries == 0 && floats != 0) || (entries > 0 && floats%entries != 0) {
		return 0, b, fmt.Errorf("dist: request has %d floats for %d entries", floats, entries)
	}
	body = body[4*entries:]
	b.ctxs = make([]int32, nctx)
	for i := range b.ctxs {
		b.ctxs[i] = int32(binary.LittleEndian.Uint32(body[4*i:]))
	}
	b.vecs = getFloats(body[4*nctx:])
	return id, b, nil
}

func putInts(p []byte, v []int32) {
	for i, c := range v {
		binary.LittleEndian.PutUint32(p[4*i:], uint32(c))
	}
}

func putFloats(p []byte, v []float32) {
	for i, f := range v {
		binary.LittleEndian.PutUint32(p[4*i:], math.Float32bits(f))
	}
}

func getFloats(p []byte) []float32 {
	v := make([]float32, len(p)/4)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return v
}

// encodeResp serializes one gradient reply (prefix included).
func encodeResp(id uint64, grads []float32) []byte {
	n := respHeaderLen + 4*len(grads)
	p := make([]byte, 4+n)
	binary.LittleEndian.PutUint32(p, uint32(n))
	p[4] = frameResp
	binary.LittleEndian.PutUint64(p[5:], id)
	putFloats(p[4+respHeaderLen:], grads)
	return p
}

func decodeResp(p []byte) (id uint64, grads []float32, err error) {
	if len(p) < respHeaderLen || (len(p)-respHeaderLen)%4 != 0 {
		return 0, nil, fmt.Errorf("dist: malformed reply frame (%d bytes)", len(p))
	}
	if p[0] != frameResp {
		return 0, nil, fmt.Errorf("dist: reply frame has kind %d", p[0])
	}
	return binary.LittleEndian.Uint64(p[1:]), getFloats(p[respHeaderLen:]), nil
}
