// Retrieval scoring kernels: batch dot products of one query against a
// block of contiguous matrix rows. This is the hot loop of the matching
// stage — a top-k scan touches every item row — so it has an arch-specific
// SIMD implementation, with a pure-Go reference kept bit-compatible for
// every other platform.
//
// Both implementations follow one fixed accumulation schedule (the
// "16-lane schedule"): lane j accumulates elements i ≡ j (mod 16), lanes
// reduce as t[j] = ((s[j]+s[4+j])+s[8+j])+s[12+j] for j in 0..3, then
// sum = ((t0+t1)+t2)+t3, then the tail (i >= dim&^15) is added
// sequentially, mul-then-add per element with no FMA contraction: the
// reference writes every product as float32(a*b), the Go spec's fusion
// barrier, because the compiler otherwise fuses s += a*b into one rounding
// on arm64, ppc64le, s390x and riscv64. Because the schedule is identical
// everywhere, DotRows is bit-identical to DotRowsRef on every input and
// every platform — the property the sharded retrieval engine's determinism
// guarantee rests on, and the one TestDotRowsBitIdentical locks down.
package vecmath

// DotRows computes dst[r] = <rows[r*dim : (r+1)*dim], q> for every r in
// [0, len(dst)), where dim = len(q). rows must hold exactly
// len(dst)*len(q) values (the contiguous row block of a V×dim matrix).
// Uses the SIMD kernel when the platform has one; always bit-identical to
// DotRowsRef.
func DotRows(dst, rows, q []float32) {
	if len(rows) != len(dst)*len(q) {
		panic("vecmath: DotRows shape mismatch")
	}
	if len(dst) == 0 {
		return
	}
	if dotRowsAsm != nil && len(q) > 0 {
		dotRowsAsm(dst, rows, q)
		return
	}
	DotRowsRef(dst, rows, q)
}

// dotRowsAsm, when non-nil, is the platform SIMD kernel for DotRows. It is
// installed from an arch-specific init (see dotrows_amd64.go) and must be
// bit-identical to DotRowsRef; it may assume len(q) > 0 and matching
// shapes. Left nil on platforms without a kernel.
var dotRowsAsm func(dst, rows, q []float32)

// DotRowsRef is the portable pure-Go reference for DotRows: same shapes,
// same 16-lane accumulation schedule, bit-identical results. It exists so
// the SIMD path has an executable specification to be property-tested
// against, and so non-amd64 builds serve identical retrieval results.
func DotRowsRef(dst, rows, q []float32) {
	if len(rows) != len(dst)*len(q) {
		panic("vecmath: DotRowsRef shape mismatch")
	}
	dim := len(q)
	for r := range dst {
		dst[r] = dotSched16(rows[r*dim:(r+1)*dim:(r+1)*dim], q)
	}
}

// dotSched16 is the 16-lane-schedule dot product (see the package-section
// comment above for the exact order). The explicit float32 conversions
// keep each product a separate rounding on FMA-fusing platforms.
func dotSched16(a, b []float32) float32 {
	var s [16]float32
	i := 0
	for ; i+16 <= len(a); i += 16 {
		aa := a[i : i+16 : i+16]
		bb := b[i : i+16 : i+16]
		for j := 0; j < 16; j++ {
			s[j] += float32(aa[j] * bb[j])
		}
	}
	var t [4]float32
	for j := 0; j < 4; j++ {
		t[j] = ((s[j] + s[4+j]) + s[8+j]) + s[12+j]
	}
	sum := ((t[0] + t[1]) + t[2]) + t[3]
	for ; i < len(a); i++ {
		sum += float32(a[i] * b[i])
	}
	return sum
}
