//go:build amd64 && gc && !purego

package vecmath

// The AVX kernels require both the CPU flag and OS support for saving YMM
// state (checked via XGETBV), probed once here; without them DotRows and
// PairStep keep using the pure-Go references.
var useAVX = hasAVX()

func init() {
	if useAVX {
		dotRowsAsm = dotRowsAVX
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
