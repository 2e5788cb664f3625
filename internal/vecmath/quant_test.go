package vecmath

import (
	"math"
	"testing"
	"testing/quick"

	"sisg/internal/rng"
)

// randomRow fills a length-n row with values in [-spread, spread], with an
// occasional exact zero and repeated value so quantization ties occur.
func randomRow(r *rng.RNG, n int, spread float64) []float32 {
	row := make([]float32, n)
	for i := range row {
		switch r.Intn(16) {
		case 0:
			row[i] = 0
		case 1:
			if i > 0 {
				row[i] = row[i-1]
			}
		default:
			row[i] = float32((r.Float64()*2 - 1) * spread)
		}
	}
	return row
}

// Quantize/dequantize round trip: every element must reconstruct within
// scale/2 (the bound the max-abs symmetric format guarantees), and the
// max-abs element must survive with code magnitude 127.
func TestQuantizeRoundTripErrorBound(t *testing.T) {
	f := func(seed uint64, dimRaw uint8, spreadRaw uint8) bool {
		r := rng.New(seed)
		dim := 1 + int(dimRaw)%192
		spread := 0.001 + float64(spreadRaw)/8 // 0.001 .. ~32
		row := randomRow(r, dim, spread)
		codes := make([]int8, dim)
		scale := QuantizeRow(codes, row)
		if scale < 0 {
			t.Errorf("negative scale %g", scale)
			return false
		}
		back := make([]float32, dim)
		DequantizeRow(back, codes, scale)
		// float32 slack: scale*code is one rounding away from exact.
		bound := float64(scale)/2*(1+1e-5) + 1e-30
		for i := range row {
			if err := math.Abs(float64(row[i]) - float64(back[i])); err > bound {
				t.Errorf("seed=%d dim=%d elem %d: |%g - %g| = %g > %g (scale %g)",
					seed, dim, i, row[i], back[i], err, bound, scale)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The inequality the flat scan's pruning proof consumes, on the reals (not
// through a float32 DequantizeRow): |x - s*c| <= s/2 up to a relative
// 2^-20, over rows spanning many magnitudes, with ties and zeros.
func TestQuantizeRowErrorBound(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 2000; trial++ {
		dim := 1 + r.Intn(200)
		row := randomRow(r, dim, math.Pow(10, float64(r.Intn(9))-5))
		if trial%7 == 0 {
			row[r.Intn(dim)] = 0
		}
		codes := make([]int8, dim)
		scale := float64(QuantizeRow(codes, row))
		bound := scale / 2 * (1 + 0x1p-20)
		for i, x := range row {
			if err := math.Abs(float64(x) - scale*float64(codes[i])); err > bound {
				t.Fatalf("trial %d dim %d elem %d: |%g - %g*%d| = %g > %g", trial, dim, i, x, scale, codes[i], err, bound)
			}
		}
	}
}

// The query side of the same proof: codes within ±queryLimitI16, the
// max-abs element at the limit, and |q - t*u| <= t/2 up to 2^-20.
func TestQuantizeQueryI16ErrorBound(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 2000; trial++ {
		dim := 1 + r.Intn(200)
		if trial%50 == 0 {
			dim = 517 + r.Intn(3000) // past the dim where the limit drops below 32767
		}
		q := randomRow(r, dim, math.Pow(10, float64(r.Intn(9))-5))
		u := make([]int16, dim)
		step := QuantizeQueryI16(u, q)
		limit := queryLimitI16(dim)
		if int64(127)*int64(limit)*int64(dim) >= 1<<31 {
			t.Fatalf("dim %d: limit %d lets an int32 sum overflow", dim, limit)
		}
		bound := step / 2 * (1 + 0x1p-20)
		peak := 0
		for i, x := range q {
			c := int(u[i])
			if c < -limit || c > limit {
				t.Fatalf("trial %d: code %d outside ±%d", trial, c, limit)
			}
			peak = max(peak, c, -c)
			if err := math.Abs(float64(x) - step*float64(c)); err > bound {
				t.Fatalf("trial %d dim %d elem %d: |%g - %g*%d| = %g > %g", trial, dim, i, x, step, c, err, bound)
			}
		}
		if step > 0 && peak != limit {
			t.Fatalf("trial %d: largest code %d, want the limit %d", trial, peak, limit)
		}
	}
	if step := QuantizeQueryI16(make([]int16, 5), make([]float32, 5)); step != 0 {
		t.Fatalf("zero query step = %g, want 0", step)
	}
}

// DotRowsI8 (the AVX2 kernel where there is one), its reference and a
// plain int64 sum agree on every shape — dims on both sides of the 16-wide
// body, row counts on both sides of the four-row groups — including the
// extreme input: every code ±127 against every query value ±limit, where
// the sum comes closest to the int32 range.
func TestDotRowsI8MatchesRef(t *testing.T) {
	r := rng.New(43)
	for dim := 1; dim <= 200; dim++ {
		limit := queryLimitI16(dim)
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 33, 64, 65} {
			for _, extreme := range []bool{false, true} {
				codes := make([]int8, n*dim)
				q := make([]int16, dim)
				for i := range q {
					q[i] = int16(r.Intn(2*limit+1) - limit)
					if extreme {
						q[i] = int16(limit * (1 - 2*r.Intn(2)))
					}
				}
				for i := range codes {
					codes[i] = int8(r.Intn(255) - 127)
					if extreme {
						codes[i] = int8(127 * (1 - 2*r.Intn(2)))
						if n > 1 && i < dim { // one row with every product positive
							codes[i] = 127
							if q[i] < 0 {
								codes[i] = -127
							}
						}
					}
				}
				got := make([]int32, n)
				ref := make([]int32, n)
				DotRowsI8(got, codes, q)
				DotRowsI8Ref(ref, codes, q)
				for row := 0; row < n; row++ {
					var want int64
					for i := 0; i < dim; i++ {
						want += int64(codes[row*dim+i]) * int64(q[i])
					}
					if int64(got[row]) != want || int64(ref[row]) != want {
						t.Fatalf("dim=%d n=%d row=%d extreme=%v: DotRowsI8 %d, DotRowsI8Ref %d, want %d",
							dim, n, row, extreme, got[row], ref[row], want)
					}
				}
			}
		}
	}
}

func TestDotRowsI8ShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	DotRowsI8(make([]int32, 3), make([]int8, 10), make([]int16, 4))
}

func TestQuantizeZeroRow(t *testing.T) {
	row := make([]float32, 37)
	codes := make([]int8, 37)
	if scale := QuantizeRow(codes, row); scale != 0 {
		t.Fatalf("zero row scale = %g, want 0", scale)
	}
	for i, c := range codes {
		if c != 0 {
			t.Fatalf("zero row code[%d] = %d", i, c)
		}
	}
}

// Quantized dot vs float dot: the error is bounded by the analytic bound
//
//	|<r,q> - s_r s_q <c_r,c_q>| <= (s_r/2)·Σ|q_i| + (s_q/2)·Σ|r̂_i|
//
// (each element of a quantized row is within half a scale step of its
// float value, and the int32 accumulation inside DotInt8 is exact).
func TestQuantizedDotErrorBound(t *testing.T) {
	f := func(seed uint64, dimRaw uint8) bool {
		r := rng.New(seed)
		dim := 1 + int(dimRaw)%192
		row := randomRow(r, dim, 2)
		q := randomRow(r, dim, 2)
		rc := make([]int8, dim)
		qc := make([]int8, dim)
		rs := QuantizeRow(rc, row)
		qs := QuantizeRow(qc, q)

		got := float64(rs) * float64(qs) * float64(DotInt8(rc, qc))
		var want, sumAbsQ, sumAbsRHat float64
		for i := range row {
			want += float64(row[i]) * float64(q[i])
			sumAbsQ += math.Abs(float64(q[i]))
			sumAbsRHat += math.Abs(float64(rs) * float64(rc[i]))
		}
		bound := float64(rs)/2*sumAbsQ + float64(qs)/2*sumAbsRHat
		// Slack for the float32 rounding of the scales themselves.
		bound = bound*(1+1e-5) + 1e-20
		if err := math.Abs(got - want); err > bound {
			t.Errorf("seed=%d dim=%d: |%g - %g| = %g > bound %g", seed, dim, got, want, err, bound)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// DotInt8 must agree with a plain reference loop (the 4-way unroll is a
// pure speedup; integer arithmetic leaves no schedule freedom).
func TestDotInt8MatchesReference(t *testing.T) {
	r := rng.New(7)
	for dim := 0; dim < 70; dim++ {
		a := make([]int8, dim)
		b := make([]int8, dim)
		for i := range a {
			a[i] = int8(r.Intn(255) - 127)
			b[i] = int8(r.Intn(255) - 127)
		}
		var want int32
		for i := range a {
			want += int32(a[i]) * int32(b[i])
		}
		if got := DotInt8(a, b); got != want {
			t.Fatalf("dim %d: DotInt8 = %d, want %d", dim, got, want)
		}
	}
}

func BenchmarkDotInt8Dim64(b *testing.B) {
	r := rng.New(9)
	x := make([]int8, 64)
	y := make([]int8, 64)
	for i := range x {
		x[i] = int8(r.Intn(255) - 127)
		y[i] = int8(r.Intn(255) - 127)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt32 = DotInt8(x, y)
	}
}

var sinkInt32 int32

func benchDotRowsI8(b *testing.B, kernel func(dst []int32, codes []int8, q []int16)) {
	const rows, dim = 50000, 64
	r := rng.New(13)
	codes := make([]int8, rows*dim)
	q := make([]int16, dim)
	for i := range codes {
		codes[i] = int8(r.Intn(255) - 127)
	}
	for i := range q {
		q[i] = int16(r.Intn(65535) - 32767)
	}
	dst := make([]int32, rows)
	b.SetBytes(int64(rows * dim))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(dst, codes, q)
	}
}

func BenchmarkDotRowsI8Scan50k(b *testing.B)    { benchDotRowsI8(b, DotRowsI8) }
func BenchmarkDotRowsI8RefScan50k(b *testing.B) { benchDotRowsI8(b, DotRowsI8Ref) }
