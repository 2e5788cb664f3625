//go:build amd64 && gc && !purego

package vecmath

// The AVX kernels require both the CPU flag and OS support for saving YMM
// state (checked via XGETBV), probed once here; without them DotRows and
// PairStep keep using the pure-Go references.
var useAVX = hasAVX()

func init() {
	if useAVX {
		dotRowsAsm = dotRowsAVX
		dotRowsAtAsm = dotRowsAtAVX
	}
}

// hasAVX reports CPU + OS support for AVX (CPUID leaf 1 ECX bits 27/28,
// then XCR0 bits 1..2). Implemented in dotrows_amd64.s.
func hasAVX() bool

// dotRowsAVX computes dst[r] = <rows[r*dim:(r+1)*dim], q> with the 16-lane
// schedule on AVX 256-bit registers; bit-identical to DotRowsRef.
// Requires len(rows) == len(dst)*len(q) and len(q) > 0 (enforced by the
// DotRows wrapper). Implemented in dotrows_amd64.s.
//
//go:noescape
func dotRowsAVX(dst, rows, q []float32)

// dotRowsAtAVX is DotRowsAt on AVX: per id, the row's body runs exactly as
// in dotRowsAVX, and before it the kernel issues PREFETCHT0 for every cache
// line of the row prefetchDist ids ahead, so the scattered rows' misses
// overlap instead of each stalling its own dot product. Requires the
// shapes and ids DotRowsAt checks and len(ids) > 0. Implemented in
// dotrows_amd64.s.
//
//go:noescape
func dotRowsAtAVX(dst, mat []float32, ids []int32, q []float32)
