// Int8 quantization and the int8 kernel of the retrieval scans. internal/knn
// keeps an int8 mirror of the indexed rows, stored in the block layout (see
// the package doc), and the exact flat scan reads it first — 4x less memory
// traffic than float32 — then scores the rows that survive with the exact
// float32 kernel. The scan prunes with a proven error bound and stays
// exact: quantization decides which rows get the exact kernel, never a
// served score.
//
// The format is symmetric per-row max-abs scaling: a row x is stored as
// int8 codes c[i] = round(x[i]/scale) with scale = max|x|/127, so
// x̂[i] = scale·c[i] and |x[i] - x̂[i]| <= scale/2 for every element (the
// max-abs element maps to exactly ±127; nothing clamps). A dot product of
// two quantized vectors is exact int32 arithmetic scaled once at the end:
// no float error accumulates inside the loop, which is what makes the
// quantized-dot error bound provable (see quant_test.go).
//
// A query is quantized finer than a row, to int16 (QueryI16), and scored
// against a block-layout run of code rows by DotRowsI8Mask, which in the
// same pass makes the scan's prune decision per row in float64 steps every
// implementation rounds alike.
package vecmath

import (
	"math"
	"slices"
)

// maxAbs returns the largest magnitude in x, skipping NaNs (0 for an empty
// or all-NaN slice), and whether x holds a NaN. |v| clears the sign bit: a
// branch on the sign mispredicts on every other element of a trained row.
func maxAbs(x []float32) (m float32, nan bool) {
	for _, v := range x {
		a := math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
		if a > m {
			m = a
		}
		if a != a {
			nan = true
		}
	}
	return m, nan
}

// roundHalfAway is math.Round (to the nearest integer, halves away from
// zero) without its branches on the exponent, which mispredict on random
// data. Adding the largest float64 below 1/2, with x's sign, and truncating
// rounds every float64 as math.Round does, ±0, ±Inf and NaN included: the
// sum can only reach the next integer when x's fraction is at least 1/2.
func roundHalfAway(x float64) float64 {
	return math.Trunc(x + math.Copysign(0.49999999999999994, x))
}

// QuantizeRow quantizes src into dst (same length) with symmetric per-row
// scaling and returns the scale. dst[i] = round(src[i]/scale) clamped to
// [-127, 127]; a zero (or empty) row gets scale 0 and all-zero codes.
// Reconstruction is scale*dst[i], with per-element error <= scale/2.
// Non-finite inputs are clamped deterministically (NaN quantizes to -127).
func QuantizeRow(dst []int8, src []float32) float32 {
	scale, _ := QuantizeRowNaN(dst, src)
	return scale
}

// QuantizeRowNaN is QuantizeRow that also reports whether src holds a NaN,
// which the scale does not show (the max-abs pass skips NaNs), from the same
// pass over src.
func QuantizeRowNaN(dst []int8, src []float32) (scale float32, nan bool) {
	if len(dst) != len(src) {
		panic("vecmath: QuantizeRow length mismatch")
	}
	maxAbs, nan := maxAbs(src)
	if maxAbs == 0 {
		clear(dst)
		return 0, nan
	}
	scale = maxAbs / 127
	inv := 1 / float64(scale)
	for i, v := range src {
		c := roundHalfAway(float64(v) * inv)
		if !(c >= -127) { // also catches NaN
			c = -127
		} else if c > 127 {
			c = 127
		}
		dst[i] = int8(c)
	}
	return scale, nan
}

// DequantizeRow reconstructs codes into dst: dst[i] = scale * codes[i].
func DequantizeRow(dst []float32, codes []int8, scale float32) {
	if len(dst) != len(codes) {
		panic("vecmath: DequantizeRow length mismatch")
	}
	for i, c := range codes {
		dst[i] = scale * float32(c)
	}
}

// DotInt8 returns the integer inner product of two int8 code vectors: the
// scalar reference for int8 x int8 scoring. The scan in internal/knn uses
// DotRowsI8Mask, which takes the query as int16 and a block of rows. The
// accumulation is exact: |a[i]*b[i]| <= 127² = 16129, so int32 holds the
// sum without overflow for any dimension up to ~133k — far beyond any
// embedding this repository trains. The float similarity is recovered as
// float32(DotInt8(a,b)) * scaleA * scaleB.
func DotInt8(a, b []int8) int32 {
	if len(a) != len(b) {
		panic("vecmath: DotInt8 length mismatch")
	}
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		s0 += int32(aa[0]) * int32(bb[0])
		s1 += int32(aa[1]) * int32(bb[1])
		s2 += int32(aa[2]) * int32(bb[2])
		s3 += int32(aa[3]) * int32(bb[3])
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// queryLimitI16 is the largest code magnitude QuantizeQueryI16 uses for a
// query of dim elements: 32767 up to dim 516, and beyond that the largest
// u with 127*u*dim < 2^31, so that a row's integer score against any int8
// codes fits in int32.
func queryLimitI16(dim int) int {
	if dim <= 516 {
		return math.MaxInt16
	}
	return math.MaxInt32 / (127 * dim)
}

// QuantizeQueryI16 quantizes a query into dst (same length) with symmetric
// max-abs scaling — to ±32767 up to dim 516, lower beyond, see
// queryLimitI16 — and returns the step t:
// dst[i] = round(src[i]/t), so |src[i] - t*dst[i]| <= t/2 up to a relative
// 2^-35. A zero (or empty) query gets step 0 and all-zero codes. src must
// be finite; a NaN quantizes to the negative limit, deterministically.
func QuantizeQueryI16(dst []int16, src []float32) float64 {
	if len(dst) != len(src) {
		panic("vecmath: QuantizeQueryI16 length mismatch")
	}
	maxAbs, _ := maxAbs(src)
	if maxAbs == 0 {
		clear(dst)
		return 0
	}
	limit := float64(queryLimitI16(len(src)))
	inv := limit / float64(maxAbs)
	for i, v := range src {
		c := roundHalfAway(float64(v) * inv)
		if !(c >= -limit) { // also catches NaN
			c = -limit
		} else if c > limit {
			c = limit
		}
		dst[i] = int16(c)
	}
	return float64(maxAbs) / limit
}

// BlockRows is the number of rows one block of the int8 layout holds.
const BlockRows = 16

// BlockLen returns the number of codes one block of rows of dim elements
// takes: BlockRows rows of dim codes, dim rounded up to a whole quad.
func BlockLen(dim int) int { return BlockRows * quads(dim) * 4 }

func quads(dim int) int { return (dim + 3) / 4 }

// PutBlockRow stores codes, one row, as row j of blk, a block of
// BlockLen(len(codes)) codes, and returns the sum of the codes: quad k of
// the row (codes 4k … 4k+3) goes to blk[64k+4j : 64k+4j+4]. The codes of a
// partial last quad are followed by zeros, which PutBlockRow leaves alone:
// a block starts out zeroed.
func PutBlockRow(blk []int8, j int, codes []int8) (sum int32) {
	if len(blk) != BlockLen(len(codes)) || j < 0 || j >= BlockRows {
		panic("vecmath: PutBlockRow shape mismatch")
	}
	i := 0
	for ; i+4 <= len(codes); i += 4 {
		c := codes[i : i+4 : i+4]
		d := blk[i*16+j*4 : i*16+j*4+4 : i*16+j*4+4]
		d[0], d[1], d[2], d[3] = c[0], c[1], c[2], c[3]
		sum += int32(c[0]) + int32(c[1]) + int32(c[2]) + int32(c[3])
	}
	for ; i < len(codes); i++ {
		blk[i>>2*64+j*4+i&3] = codes[i]
		sum += int32(codes[i])
	}
	return sum
}

// QueryI16 is a query quantized for DotRowsI8Mask: QuantizeQueryI16's codes
// u followed by zeros to a whole quad, and the byte planes of u + 32768
// that the VNNI kernel multiplies (see the package doc).
type QueryI16 struct {
	u      []int16
	planes []uint8 // per quad: the low bytes of its four u+32768, then their high bytes
}

// Quantize sets x to q quantized by QuantizeQueryI16 and returns the step.
func (x *QueryI16) Quantize(q []float32) float64 {
	n := quads(len(q)) * 4
	x.u = slices.Grow(x.u[:0], n)[:n]
	t := QuantizeQueryI16(x.u[:len(q)], q)
	clear(x.u[len(q):])
	x.setPlanes()
	return t
}

// setPlanes derives the byte planes from x.u.
func (x *QueryI16) setPlanes() {
	x.planes = slices.Grow(x.planes[:0], 2*len(x.u))[:2*len(x.u)]
	for i, v := range x.u {
		w := uint16(v) ^ 0x8000 // v + 32768
		x.planes[i>>2*8+i&3] = uint8(w)
		x.planes[i>>2*8+4+i&3] = uint8(w >> 8)
	}
}

// DotRowsI8Mask scores rows [0, len(dst)) of a block-layout run of code
// rows against the query, dst[r] = Σ_i c_r[i]·u[i], and makes the flat
// scan's prune decision for every row in the same pass: it sets bit r%64
// of mask[r/64] exactly when
//
//	!(up <= tau), where _, up = ScoreInterval(scales[r], dst[r], t, b),
//
// and clears every other bit of mask. The compare is unordered: a row whose
// up is NaN is flagged. codes holds the (len(dst)+15)/16 blocks the rows
// span, sums and scales one value per row of those blocks (the rows past
// len(dst) included), sums[r] being the sum of row r's codes (as
// PutBlockRow returns it), and mask (len(dst)+63)/64 words. The scores are
// exact for any query QueryI16.Quantize produced. Runs the fastest kernel
// the platform has; always equal to DotRowsI8MaskRef.
func DotRowsI8Mask(dst []int32, mask []uint64, codes []int8, sums []int32, q *QueryI16, scales []float32, t, b, tau float64) {
	if dotRowsI8Asm == nil {
		DotRowsI8MaskRef(dst, mask, codes, sums, q, scales, t, b, tau)
		return
	}
	dotRowsI8MaskWith(dotRowsI8Asm, dst, mask, codes, sums, q, scales, t, b, tau)
}

// dotRowsI8MaskWith is DotRowsI8Mask on the platform kernel fn.
func dotRowsI8MaskWith(fn i8Func, dst []int32, mask []uint64, codes []int8, sums []int32, q *QueryI16, scales []float32, t, b, tau float64) {
	checkMaskShape(dst, mask, codes, sums, q, scales)
	clear(mask)
	if len(dst) > 0 {
		fn(dst, mask, codes, sums, q.u, q.planes, scales, t, b, tau)
	}
}

func checkMaskShape(dst []int32, mask []uint64, codes []int8, sums []int32, q *QueryI16, scales []float32) {
	rows := (len(dst) + BlockRows - 1) / BlockRows * BlockRows
	if len(codes) != rows*len(q.u) || len(sums) != rows || len(scales) != rows || len(mask) != (len(dst)+63)/64 {
		panic("vecmath: DotRowsI8Mask shape mismatch")
	}
}

// ScoreInterval returns s·(t·d ∓ b) in float64: the interval the int8-first
// flat scan (internal/knn, scan.prune) proves a row's float32 score lies in,
// from the row's scale s, its integer score d, the query's step t and the
// half-width b. Each product is converted explicitly, the Go spec's fusion
// barrier, so that no platform contracts one into a fused multiply-add:
// DotRowsI8Mask's kernels round every step, and the scan re-tests the rows
// they flag with this function.
func ScoreInterval(s float32, d int32, t, b float64) (lo, up float64) {
	w := float64(s)
	a := float64(t * float64(d))
	return float64(w * (a - b)), float64(w * (a + b))
}

// i8Func is a platform kernel behind DotRowsI8Mask: it writes the integer
// scores and ORs in the bits DotRowsI8Mask defines into a mask the caller
// cleared. It may assume matching shapes and len(dst) > 0.
type i8Func func(dst []int32, mask []uint64, codes []int8, sums []int32, u []int16, planes []uint8, scales []float32, t, b, tau float64)

// i8Kernel is a kernel compiled for this platform, and whether this host
// can run it.
type i8Kernel struct {
	name string
	fn   i8Func
	ok   bool
}

// i8Kernels lists the kernels compiled for this platform, fastest first
// (see quant_amd64.go); dotRowsI8Asm is the first one the host runs, or nil.
var (
	i8Kernels    []i8Kernel
	dotRowsI8Asm i8Func
)

// DotRowsI8MaskRef is the portable reference for DotRowsI8Mask: the integer
// scores row by row from the block layout, then the predicate row by row.
// It reads neither sums nor the byte planes.
func DotRowsI8MaskRef(dst []int32, mask []uint64, codes []int8, sums []int32, q *QueryI16, scales []float32, t, b, tau float64) {
	checkMaskShape(dst, mask, codes, sums, q, scales)
	u := q.u
	bl := BlockRows * len(u)
	for r := range dst {
		row := codes[r/BlockRows*bl+r%BlockRows*4:]
		var s int32
		for k := 0; k < len(u); k += 4 {
			c := row[k*BlockRows : k*BlockRows+4 : k*BlockRows+4]
			uu := u[k : k+4 : k+4]
			s += int32(c[0])*int32(uu[0]) + int32(c[1])*int32(uu[1]) + int32(c[2])*int32(uu[2]) + int32(c[3])*int32(uu[3])
		}
		dst[r] = s
	}
	clear(mask)
	for r, d := range dst {
		if _, up := ScoreInterval(scales[r], d, t, b); !(up <= tau) {
			mask[r>>6] |= 1 << (r & 63)
		}
	}
}
