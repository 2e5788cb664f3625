// Package vecmath provides the float32 vector kernels of the repository:
// the SGNS pair update every trainer runs (PairStep), the batch dot
// product every retrieval scan runs (DotRows), int8 quantization, and the
// small helpers around them (dot, axpy, cosine, the precomputed sigmoid
// table word2vec-style trainers rely on).
//
// All embedding math in this repository is float32: at billion scale the
// paper's engine is memory-bound, and float32 halves both footprint and
// memory traffic versus float64 with no measurable loss for SGNS.
//
// The two hot kernels, PairStep and DotRows, each have an AVX
// implementation on amd64 and a pure-Go reference (PairStepRef,
// DotRowsRef) that is bit-identical to it on every input: one fixed
// accumulation order, every product and sum rounded separately. The
// reference is the specification the assembly is property-tested against
// and what every other platform (and the purego build tag) runs, so models
// and retrieval results do not depend on the machine. The helpers (Dot,
// Axpy, ...) are plain 4-way unrolled Go and promise no particular
// rounding order.
package vecmath

import "math"

// Dot returns the inner product of a and b. The slices must be the same
// length; this is enforced by a bounds hint rather than a branch so the
// compiler can eliminate per-element checks.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha * x in place.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("vecmath: Axpy length mismatch")
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xx := x[i : i+4 : i+4]
		yy := y[i : i+4 : i+4]
		yy[0] += alpha * xx[0]
		yy[1] += alpha * xx[1]
		yy[2] += alpha * xx[2]
		yy[3] += alpha * xx[3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes y += x in place.
func Add(x, y []float32) {
	if len(x) != len(y) {
		panic("vecmath: Add length mismatch")
	}
	for i := range x {
		y[i] += x[i]
	}
}

// Zero clears x.
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// Norm returns the Euclidean norm of x.
func Norm(x []float32) float32 {
	return float32(math.Sqrt(float64(Dot(x, x))))
}

// Normalize scales x to unit length in place and returns its original norm.
// A zero vector is left unchanged and 0 is returned.
func Normalize(x []float32) float32 {
	n := Norm(x)
	if n == 0 {
		return 0
	}
	Scale(1/n, x)
	return n
}

// Cosine returns the cosine similarity of a and b, or 0 if either is zero.
func Cosine(a, b []float32) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Mean overwrites dst with the element-wise mean of the given vectors.
// It panics if vecs is empty or lengths differ.
func Mean(dst []float32, vecs ...[]float32) {
	if len(vecs) == 0 {
		panic("vecmath: Mean of no vectors")
	}
	Zero(dst)
	for _, v := range vecs {
		Add(v, dst)
	}
	Scale(1/float32(len(vecs)), dst)
}

// Sigmoid lookup table, identical in spirit to word2vec's expTable: the
// logistic function is evaluated ~40 times per training pair, and a 4k-entry
// table over [-maxExp, maxExp] is accurate to ~1e-3, which SGD noise dwarfs.
const (
	sigTableSize = 4096
	// MaxExp bounds the argument of the tabulated sigmoid. Inputs outside
	// [-MaxExp, MaxExp] saturate to 0 or 1, matching word2vec behaviour.
	MaxExp = 6.0
)

var sigTable [sigTableSize]float32

func init() {
	for i := 0; i < sigTableSize; i++ {
		x := (float64(i)/sigTableSize*2 - 1) * MaxExp
		sigTable[i] = float32(1 / (1 + math.Exp(-x)))
	}
}

// Sigmoid returns the logistic function of x from the lookup table,
// saturating outside [-MaxExp, MaxExp].
func Sigmoid(x float32) float32 {
	if x >= MaxExp {
		return 1
	}
	if x <= -MaxExp {
		return 0
	}
	idx := int((x + MaxExp) / (2 * MaxExp) * sigTableSize)
	if idx >= sigTableSize {
		idx = sigTableSize - 1
	}
	return sigTable[idx]
}

// SigmoidExact returns the logistic function computed with math.Exp, used
// by tests to bound table error and by numerically sensitive callers.
func SigmoidExact(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}
