package vecmath

import (
	"math"
	"testing"

	"sisg/internal/rng"
)

// sameBits reports the first index at which a and b differ bit-for-bit,
// or -1.
func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkPairStep runs PairStep and PairStepRef on private copies of the
// same inputs and requires identical return values and bit-identical c and
// grad. v is read-only for both. The copies sit at the given offset inside
// a larger backing array so the kernel sees unaligned sub-slices, and the
// guard words around them prove neither path writes out of bounds.
func checkPairStep(t *testing.T, what string, off int, v, c, grad []float32, label, lr float32) bool {
	t.Helper()
	dim := len(v)
	const guard = float32(-12345.5)
	place := func(src []float32) (whole, sub []float32) {
		whole = make([]float32, off+dim+3)
		for i := range whole {
			whole[i] = guard
		}
		sub = whole[off : off+dim : off+dim]
		copy(sub, src)
		return
	}
	_, va := place(v)
	cw, ca := place(c)
	gw, ga := place(grad)
	cr := append([]float32(nil), c...)
	gr := append([]float32(nil), grad...)

	got := PairStep(va, ca, ga, label, lr)
	want := PairStepRef(v, cr, gr, label, lr)
	if got != want {
		t.Fatalf("%s dim=%d off=%d: PairStep reported %v, reference %v", what, dim, off, got, want)
	}
	if i := sameBits(ca, cr); i >= 0 {
		t.Fatalf("%s dim=%d off=%d: c[%d] = %x, reference %x", what, dim, off, i, math.Float32bits(ca[i]), math.Float32bits(cr[i]))
	}
	if i := sameBits(ga, gr); i >= 0 {
		t.Fatalf("%s dim=%d off=%d: grad[%d] = %x, reference %x", what, dim, off, i, math.Float32bits(ga[i]), math.Float32bits(gr[i]))
	}
	if i := sameBits(va, v); i >= 0 {
		t.Fatalf("%s dim=%d off=%d: v[%d] was written", what, dim, off, i)
	}
	for _, w := range [][]float32{cw, gw} {
		for i, x := range w {
			if (i < off || i >= off+dim) && x != guard {
				t.Fatalf("%s dim=%d off=%d: wrote outside the slice at %d", what, dim, off, i)
			}
		}
	}
	if !got {
		if i := sameBits(ca, c); i >= 0 {
			t.Fatalf("%s dim=%d off=%d: guard tripped but c[%d] was written", what, dim, off, i)
		}
		if i := sameBits(ga, grad); i >= 0 {
			t.Fatalf("%s dim=%d off=%d: guard tripped but grad[%d] was written", what, dim, off, i)
		}
	}
	return got
}

// The SIMD kernel must be bit-identical to the reference on every dim
// crossing the 32/16/8-wide bodies and the scalar tails, at every
// alignment, for both labels and both signs of lr·g, with the sigmoid in
// its table range and saturated on either side.
func TestPairStepBitIdentical(t *testing.T) {
	r := rng.New(21)
	for dim := 0; dim <= 130; dim++ {
		v := make([]float32, dim)
		c := make([]float32, dim)
		grad := make([]float32, dim)
		for rep := 0; rep < 4; rep++ {
			fill(r, v)
			fill(r, c)
			fill(r, grad)
			for _, label := range []float32{0, 1} {
				for _, lr := range []float32{0.025, -0.025, 1e-6} {
					checkPairStep(t, "random", (dim+rep)%9, v, c, grad, label, lr)
				}
			}
		}
		if dim == 0 {
			continue
		}
		// Saturated sigmoid: |v·c| >= MaxExp, so g is exactly 0 for the
		// matching label and ±lr for the other.
		for _, sign := range []float32{1, -1} {
			for i := range v {
				v[i] = 3
				c[i] = sign * 3
			}
			fill(r, grad)
			if d := dotSched16(v, c); d < MaxExp && d > -MaxExp {
				t.Fatalf("dim=%d: dot %v does not saturate", dim, d)
			}
			for _, label := range []float32{0, 1} {
				checkPairStep(t, "saturated", dim%5, v, c, grad, label, 0.025)
			}
		}
	}
}

// A non-finite row trips the guard in both implementations: no write to c
// or grad, and false reported so the caller can skip the pair.
func TestPairStepNonFiniteGuard(t *testing.T) {
	r := rng.New(22)
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, dim := range []int{1, 7, 8, 16, 17, 33, 64, 100} {
		for _, bad := range []float32{nan, inf, -inf} {
			for _, inV := range []bool{true, false} {
				for _, pos := range []int{0, dim / 2, dim - 1} {
					v := make([]float32, dim)
					c := make([]float32, dim)
					grad := make([]float32, dim)
					fill(r, v)
					fill(r, c)
					fill(r, grad)
					if inV {
						v[pos] = bad
					} else {
						c[pos] = bad
					}
					if checkPairStep(t, "non-finite", pos%3, v, c, grad, 1, 0.025) {
						t.Fatalf("dim=%d: PairStep accepted a row holding %v", dim, bad)
					}
				}
			}
		}
	}
	// Finite rows whose dot product overflows are diverged too.
	v := []float32{3e38, 3e38}
	c := []float32{3e38, 3e38}
	if checkPairStep(t, "overflow", 0, v, c, make([]float32, 2), 1, 0.025) {
		t.Fatal("PairStep accepted an overflowing dot product")
	}
}

// PairStep is the update the four trainers used to write out by hand.
func TestPairStepMatchesDefinition(t *testing.T) {
	r := rng.New(23)
	const dim = 67
	v := make([]float32, dim)
	c := make([]float32, dim)
	grad := make([]float32, dim)
	for i := range v {
		v[i] = r.Float32() - 0.5
		c[i] = r.Float32() - 0.5
		grad[i] = r.Float32() - 0.5
	}
	wantC := append([]float32(nil), c...)
	wantGrad := append([]float32(nil), grad...)
	g := (1 - Sigmoid(Dot(v, c))) * 0.025
	Axpy(g, c, wantGrad)
	Axpy(g, v, wantC)
	if !PairStep(v, c, grad, 1, 0.025) {
		t.Fatal("guard tripped on finite rows")
	}
	for i := range c {
		if math.Abs(float64(c[i]-wantC[i])) > 1e-6 || math.Abs(float64(grad[i]-wantGrad[i])) > 1e-6 {
			t.Fatalf("element %d: c %v want %v, grad %v want %v", i, c[i], wantC[i], grad[i], wantGrad[i])
		}
	}
}

func TestPairStepLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	PairStep(make([]float32, 4), make([]float32, 4), make([]float32, 3), 1, 0.025)
}

// Known answers whose bits differ if the compiler contracts x*y + z into
// one rounding. With a = 1+2^-12, a·a = 1 + 2^-11 + 2^-24 rounds (ties to
// even) to 1 + 2^-11, so adding it to −(1+2^-11) gives exactly 0 as two
// roundings and 2^-24 as one. amd64 never fuses; arm64, ppc64le, s390x and
// riscv64 do unless every product is written float32(x*y) — this test is
// what fails there if a barrier is dropped (CI also greps the arm64 build
// of the reference functions for fused instructions).
func TestReferenceKernelsDoNotFuse(t *testing.T) {
	const a = float32(1 + 1.0/4096)
	const b = float32(1 + 1.0/2048)

	// Lane accumulation: elements 0 and 16 share lane 0.
	x := make([]float32, 32)
	y := make([]float32, 32)
	x[0], y[0] = -b, 1
	x[16], y[16] = a, a
	if got := dotSched16(x, y); math.Float32bits(got) != 0 {
		t.Errorf("dotSched16 lane accumulation = %x (%g), want +0: product and add were fused", math.Float32bits(got), got)
	}
	// Sequential tail.
	if got := dotSched16([]float32{-b, a}, []float32{1, a}); math.Float32bits(got) != 0 {
		t.Errorf("dotSched16 tail = %x (%g), want +0: product and add were fused", math.Float32bits(got), got)
	}
	dst := make([]float32, 1)
	DotRowsRef(dst, x, y)
	if math.Float32bits(dst[0]) != 0 {
		t.Errorf("DotRowsRef = %x, want +0", math.Float32bits(dst[0]))
	}

	// Fused update pass: grad = −b + round(a·a) = 0, and
	// c = a + round(a·(−a)) = a − b = −2^-12 exactly.
	v := []float32{-a}
	c := []float32{a}
	grad := []float32{-b}
	pairAxpyRef(a, v, c, grad)
	if math.Float32bits(grad[0]) != 0 {
		t.Errorf("pairAxpyRef grad = %x (%g), want +0: product and add were fused", math.Float32bits(grad[0]), grad[0])
	}
	if want := float32(-1.0 / 4096); c[0] != want {
		t.Errorf("pairAxpyRef c = %x (%g), want %g: product and add were fused", math.Float32bits(c[0]), c[0], want)
	}
}

// One 64-dim pair update touches v, c and grad once for the dot and the
// update pass reads all three and writes two: 3 rows of traffic, reported
// as bytes so ns/update and GB/s read off one line.
func benchPairStep(b *testing.B, step func(v, c, grad []float32, label, lr float32) bool) {
	const dim = 64
	r := rng.New(24)
	v := make([]float32, dim)
	c := make([]float32, dim)
	grad := make([]float32, dim)
	for i := range v {
		v[i] = r.Float32() - 0.5
		c[i] = r.Float32() - 0.5
	}
	b.SetBytes(3 * dim * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate labels so c oscillates instead of drifting to
		// saturation over millions of iterations.
		step(v, c, grad, float32(i&1), 0.025)
	}
}

func BenchmarkPairStep64(b *testing.B)    { benchPairStep(b, PairStep) }
func BenchmarkPairStepRef64(b *testing.B) { benchPairStep(b, PairStepRef) }
