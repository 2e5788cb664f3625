// Int8 quantization kernels for the retrieval scans. internal/knn reads
// the int8 mirror of the indexed rows first — 4x less memory traffic than
// float32 — and scores the rows that survive with the exact float32
// kernel: the flat scan prunes with a proven error bound and stays exact,
// the IVF pre-screen keeps a fixed-size shortlist. Either way quantization
// decides which rows get the exact kernel, never a served score.
//
// The format is symmetric per-row max-abs scaling: a row x is stored as
// int8 codes c[i] = round(x[i]/scale) with scale = max|x|/127, so
// x̂[i] = scale·c[i] and |x[i] - x̂[i]| <= scale/2 for every element (the
// max-abs element maps to exactly ±127; nothing clamps). A dot product of
// two quantized vectors is exact int32 arithmetic scaled once at the end:
// no float error accumulates inside the loop, which is what makes the
// quantized-dot error bound provable (see quant_test.go).
//
// A query is quantized finer than a row, to int16 (QuantizeQueryI16), and
// scored against a block of code rows by DotRowsI8: AVX2 on amd64, a
// pure-Go reference elsewhere. Integer sums have no rounding, so the two
// agree on every input without a fixed accumulation schedule. The flat
// scan calls it as DotRowsI8Mask, which also makes the scan's prune
// decision per row in float64 steps both implementations round alike.
package vecmath

import "math"

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
// scalar reference for int8 x int8 scoring. The scans in internal/knn use
// DotRowsI8, which takes the query as int16 and a block of rows. The
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
// u with 127*u*dim < 2^31, so that DotRowsI8 cannot overflow its int32
// sums against any int8 codes.
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

// DotRowsI8 computes dst[r] = sum_i codes[r*dim+i] * q[i] for every r in
// [0, len(dst)), where dim = len(q): the integer scores of one int16 query
// against a contiguous block of int8 code rows. codes must hold exactly
// len(dst)*len(q) values. The sums are exact for any q that
// QuantizeQueryI16 produced (127*max|q|*dim < 2^31). Uses the AVX2 kernel
// when the platform has one; always equal to DotRowsI8Ref.
func DotRowsI8(dst []int32, codes []int8, q []int16) {
	if len(codes) != len(dst)*len(q) {
		panic("vecmath: DotRowsI8 shape mismatch")
	}
	if dotRowsI8Asm == nil {
		DotRowsI8Ref(dst, codes, q)
		return
	}
	if len(dst) > 0 {
		dotRowsI8Asm(dst, nil, codes, q, nil, 0, 0, 0)
	}
}

// DotRowsI8Mask is DotRowsI8 that also makes the flat scan's prune
// decision for every row in the same pass: it sets bit r%64 of mask[r/64]
// exactly when
//
//	!(up <= tau), where _, up = ScoreInterval(scales[r], dst[r], t, b),
//
// and clears every other bit of mask. The compare is unordered: a row whose
// up is NaN is flagged. mask must hold (len(dst)+63)/64 words and scales
// len(dst) values. Uses the AVX2 kernel when the platform has one; always
// equal to DotRowsI8MaskRef.
func DotRowsI8Mask(dst []int32, mask []uint64, codes []int8, q []int16, scales []float32, t, b, tau float64) {
	checkMaskShape(dst, mask, codes, q, scales)
	if dotRowsI8Asm == nil {
		DotRowsI8MaskRef(dst, mask, codes, q, scales, t, b, tau)
		return
	}
	clear(mask)
	if len(dst) > 0 {
		dotRowsI8Asm(dst, mask, codes, q, scales, t, b, tau)
	}
}

func checkMaskShape(dst []int32, mask []uint64, codes []int8, q []int16, scales []float32) {
	if len(codes) != len(dst)*len(q) || len(mask) != (len(dst)+63)/64 || len(scales) != len(dst) {
		panic("vecmath: DotRowsI8Mask shape mismatch")
	}
}

// ScoreInterval returns s·(t·d ∓ b) in float64: the interval the int8-first
// flat scan (internal/knn, scan.prune) proves a row's float32 score lies in,
// from the row's scale s, its integer score d, the query's step t and the
// half-width b. Each product is converted explicitly, the Go spec's fusion
// barrier, so that no platform contracts one into a fused multiply-add:
// DotRowsI8Mask's kernel rounds every step, and the scan re-tests the rows
// it flags with this function.
func ScoreInterval(s float32, d int32, t, b float64) (lo, up float64) {
	w := float64(s)
	a := float64(t * float64(d))
	return float64(w * (a - b)), float64(w * (a + b))
}

// dotRowsI8Asm, when non-nil, is the platform SIMD kernel behind DotRowsI8
// and DotRowsI8Mask: it writes the integer scores, and with a non-nil mask
// (cleared by the caller) ORs in the bits DotRowsI8Mask defines. It may
// assume matching shapes and len(dst) > 0. Installed from an arch-specific
// init (see quant_amd64.go).
var dotRowsI8Asm func(dst []int32, mask []uint64, codes []int8, q []int16, scales []float32, t, b, tau float64)

// DotRowsI8Ref is the portable reference for DotRowsI8: same shapes, same
// results.
func DotRowsI8Ref(dst []int32, codes []int8, q []int16) {
	dim := len(q)
	if len(codes) != len(dst)*dim {
		panic("vecmath: DotRowsI8Ref shape mismatch")
	}
	for r := range dst {
		row := codes[r*dim : (r+1)*dim : (r+1)*dim]
		qq := q[:len(row)]
		var s int32
		for i, c := range row {
			s += int32(c) * int32(qq[i])
		}
		dst[r] = s
	}
}

// DotRowsI8MaskRef is the portable reference for DotRowsI8Mask: the scores
// of DotRowsI8Ref, then the predicate row by row.
func DotRowsI8MaskRef(dst []int32, mask []uint64, codes []int8, q []int16, scales []float32, t, b, tau float64) {
	checkMaskShape(dst, mask, codes, q, scales)
	DotRowsI8Ref(dst, codes, q)
	clear(mask)
	for r, d := range dst {
		if _, up := ScoreInterval(scales[r], d, t, b); !(up <= tau) {
			mask[r>>6] |= 1 << (r & 63)
		}
	}
}
