//go:build amd64 && gc && !purego

package vecmath

// dot16 is the 16-lane-schedule dot product PairStep uses: the DotRows AVX
// kernel on a one-row block (one schedule, one implementation of it), or
// the reference without AVX. Called directly rather than through
// dotRowsAsm so the one-element destination stays on the stack.
func dot16(a, b []float32) float32 {
	if !useAVX || len(a) == 0 {
		return dotSched16(a, b)
	}
	var d [1]float32
	dotRowsAVX(d[:], a, b)
	return d[0]
}

func pairAxpy(g float32, v, c, grad []float32) {
	if !useAVX {
		pairAxpyRef(g, v, c, grad)
		return
	}
	pairAxpyAVX(g, v, c, grad)
}

// pairAxpyAVX computes grad += alpha·c; c += alpha·v in one pass on AVX 256-bit
// registers, VMULPS then VADDPS per element (no FMA); bit-identical to
// pairAxpyRef. Requires len(c) == len(grad) == len(v) and no overlap
// (enforced and documented by PairStep). Implemented in pairstep_amd64.s.
//
//go:noescape
func pairAxpyAVX(alpha float32, v, c, grad []float32)

// Prefetch asks the CPU to start loading row into cache and returns at
// once. It changes no value, so it cannot change a result: the pair loops
// call it on the output rows of a pair's negatives right after sampling
// them, so that the rows' cache misses overlap instead of being paid one
// PairStep at a time. A no-op on other platforms and under purego.
// Implemented in pairstep_amd64.s.
//
//go:noescape
func Prefetch(row []float32)
