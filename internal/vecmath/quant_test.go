package vecmath

import (
	"math"
	"slices"
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

// The two quantisers as PR 21 wrote them, frozen: a sign branch in the
// max-abs pass and math.Round. The branch-free ones must not move a code, a
// scale or a step — the mirror, the IVF pre-screen's shortlist and every
// pinned model downstream depend on the bytes.
func maxAbsFrozen(x []float32) float32 {
	var m float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

func quantizeRowFrozen(dst []int8, src []float32) float32 {
	maxAbs := maxAbsFrozen(src)
	if maxAbs == 0 {
		clear(dst)
		return 0
	}
	scale := maxAbs / 127
	inv := 1 / float64(scale)
	for i, v := range src {
		c := math.Round(float64(v) * inv)
		if !(c >= -127) {
			c = -127
		} else if c > 127 {
			c = 127
		}
		dst[i] = int8(c)
	}
	return scale
}

func quantizeQueryI16Frozen(dst []int16, src []float32) float64 {
	maxAbs := maxAbsFrozen(src)
	if maxAbs == 0 {
		clear(dst)
		return 0
	}
	limit := float64(queryLimitI16(len(src)))
	inv := limit / float64(maxAbs)
	for i, v := range src {
		c := math.Round(float64(v) * inv)
		if !(c >= -limit) {
			c = -limit
		} else if c > limit {
			c = limit
		}
		dst[i] = int16(c)
	}
	return float64(maxAbs) / limit
}

// roundHalfAway is math.Round on every input class: exact halves and their
// neighbours at every magnitude up to past 2^53, ±0, subnormals, ±Inf, NaN.
func TestRoundHalfAwayIsMathRound(t *testing.T) {
	r := rng.New(45)
	xs := []float64{0, math.Copysign(0, -1), 0.5, 0.49999999999999994, 0.5000000000000001, 1.5, 2.5,
		0x1p52 - 0.5, 0x1p52, 0x1p52 + 1, 0x1p53, 0x1p53 + 2, math.MaxFloat64, math.SmallestNonzeroFloat64,
		0x1p-1022, math.Inf(1), math.Inf(-1), math.NaN()}
	for e := -1074; e <= 1023; e++ {
		xs = append(xs, math.Ldexp(1+r.Float64(), e))
	}
	for i := 0; i < 20000; i++ {
		half := float64(r.Intn(1<<20)) + 0.5 // exactly halfway, then one ulp either side
		xs = append(xs, half, math.Nextafter(half, 0), math.Nextafter(half, math.Inf(1)))
		xs = append(xs, math.Ldexp(half, r.Intn(40)))
		xs = append(xs, r.NormFloat64()*math.Ldexp(1, r.Intn(20)))
	}
	for _, x := range xs {
		for _, v := range []float64{x, -x} {
			got, want := roundHalfAway(v), math.Round(v)
			if math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
				t.Fatalf("roundHalfAway(%v) = %v, math.Round = %v", v, got, want)
			}
		}
	}
}

// Both quantisers equal their frozen copies byte for byte — codes, scale
// bits, step bits — on rows mixing ordinary values with exact quantisation
// halves, ±0, subnormals, NaN, ±Inf and ties for the largest magnitude.
func TestQuantizersMatchFrozenCopies(t *testing.T) {
	r := rng.New(46)
	specials := []float32{0, float32(math.Copysign(0, -1)), 1e-40, -1e-40, math.SmallestNonzeroFloat32,
		-math.SmallestNonzeroFloat32, 0x1p-126, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for trial := 0; trial < 20000; trial++ {
		dim := 1 + r.Intn(70)
		if trial%100 == 0 {
			dim = 517 + r.Intn(200) // a query limit below 32767
		}
		row := make([]float32, dim)
		unit := float32(math.Ldexp(1, r.Intn(60)-40)) // a power of two: exact halves stay exact
		peak := 127 * unit
		if trial%2 == 1 {
			peak = float32(queryLimitI16(dim)) * unit
		}
		for i := range row {
			switch r.Intn(6) {
			case 0: // an exact half of a quantisation step, or one ulp off it
				row[i] = unit * (float32(r.Intn(254)-127) + 0.5)
				if r.Intn(2) == 0 {
					row[i] = math.Nextafter32(row[i], float32(r.NormFloat64()))
				}
			case 1:
				row[i] = specials[r.Intn(len(specials))]
			case 2:
				row[i] = float32(math.Ldexp(r.NormFloat64(), r.Intn(300)-150))
			default:
				row[i] = float32(r.NormFloat64()) * peak / 3
			}
		}
		switch trial % 4 {
		case 0: // the peak pinned, at both signs: a tie for the max
			row[r.Intn(dim)] = peak
			row[r.Intn(dim)] = -peak
		case 1: // only subnormals, or nothing at all
			for i := range row {
				row[i] = specials[2+r.Intn(5)] * float32(r.Intn(3))
			}
		}
		codes, frozen := make([]int8, dim), make([]int8, dim)
		s, sf := QuantizeRow(codes, row), quantizeRowFrozen(frozen, row)
		if math.Float32bits(s) != math.Float32bits(sf) || !slices.Equal(codes, frozen) {
			t.Fatalf("trial %d: QuantizeRow(%v) = %v, %v; frozen %v, %v", trial, row, s, codes, sf, frozen)
		}
		if _, nan := QuantizeRowNaN(codes, row); nan != slices.ContainsFunc(row, func(v float32) bool { return v != v }) {
			t.Fatalf("trial %d: QuantizeRowNaN(%v) reports nan=%v", trial, row, nan)
		}
		u, uf := make([]int16, dim), make([]int16, dim)
		step, stepf := QuantizeQueryI16(u, row), quantizeQueryI16Frozen(uf, row)
		if math.Float64bits(step) != math.Float64bits(stepf) && !(step != step && stepf != stepf) || !slices.Equal(u, uf) {
			t.Fatalf("trial %d: QuantizeQueryI16(%v) = %v, %v; frozen %v, %v", trial, row, step, u, stepf, uf)
		}
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

// DotRowsI8Mask (the fused kernel where there is one) against its
// reference, and both against the predicate written out row by row: the
// same dots and the same mask on every shape — dims on both sides of the
// 16-wide body, row counts on both sides of the four-row groups and the
// 64-row words — for the scales the scan meets (0, NaN, the ends 2^-64 and
// 2^40 of the range the bound covers, ordinary ones), τ from -Inf through
// ±0 to +Inf, a zero step, and dots at the edge of the int32 range.
func TestDotRowsI8MaskMatchesRef(t *testing.T) {
	r := rng.New(44)
	counts := []int{0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 66, 127, 128, 131, 255, 256, 257, 300}
	special := []float32{0, float32(math.NaN()), 0x1p-64, 0x1p40}
	cases := 0
	check := func(dim, n int, extreme bool) {
		limit := queryLimitI16(dim)
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
			if extreme { // every product of a row the same sign: |D| = 127·limit·dim
				sign := int8(1 - 2*((i/dim)%2))
				codes[i] = 127 * sign
				if q[i%dim] < 0 {
					codes[i] = -codes[i]
				}
			}
		}
		scales := make([]float32, n)
		for i := range scales {
			scales[i] = float32(math.Ldexp(1+r.Float64(), r.Intn(40)-30))
			if r.Intn(3) == 0 {
				scales[i] = special[r.Intn(len(special))]
			}
		}
		step := math.Ldexp(1+r.Float64(), r.Intn(30)-25)
		half := step * float64(dim) * (1 + r.Float64())
		switch cases % 5 {
		case 0: // a zero query: no step, no half-width
			step, half = 0, 0
		case 1:
			step = 0
		}
		want := make([]int32, n)
		var ups []float64
		for row := range want {
			var d int64
			for i := 0; i < dim; i++ {
				d += int64(codes[row*dim+i]) * int64(q[i])
			}
			if d < math.MinInt32 || d > math.MaxInt32 {
				t.Fatalf("dim=%d: the test built a dot %d outside int32", dim, d)
			}
			want[row] = int32(d)
			ups = append(ups, float64(scales[row])*(float64(step*float64(d))+half))
		}
		taus := []float64{math.Inf(-1), math.Copysign(0, -1), 0, math.Inf(1), step * float64(dim)}
		if len(ups) > 0 { // ties with one row's up exactly, and one ulp below another's
			taus = append(taus, ups[r.Intn(len(ups))], math.Nextafter(ups[r.Intn(len(ups))], math.Inf(-1)))
		}
		for _, tau := range taus {
			wantMask := make([]uint64, (n+63)/64)
			for row, up := range ups {
				if !(up <= tau) {
					wantMask[row/64] |= 1 << (row % 64)
				}
			}
			for _, f := range []struct {
				name string
				fn   func([]int32, []uint64, []int8, []int16, []float32, float64, float64, float64)
			}{{"DotRowsI8Mask", DotRowsI8Mask}, {"DotRowsI8MaskRef", DotRowsI8MaskRef}} {
				got := make([]int32, n)
				mask := make([]uint64, len(wantMask))
				for i := range mask {
					mask[i] = ^uint64(0) // every bit must be rewritten
				}
				f.fn(got, mask, codes, q, scales, step, half, tau)
				if !slices.Equal(got, want) {
					t.Fatalf("%s dim=%d n=%d extreme=%v: dots %v, want %v", f.name, dim, n, extreme, got, want)
				}
				if !slices.Equal(mask, wantMask) {
					t.Fatalf("%s dim=%d n=%d extreme=%v t=%g b=%g tau=%g: mask %x, want %x",
						f.name, dim, n, extreme, step, half, tau, mask, wantMask)
				}
			}
		}
		cases++
	}
	for dim := 1; dim <= 200; dim++ {
		check(dim, counts[dim%len(counts)], false)
		check(dim, counts[(dim*7)%len(counts)], dim%4 == 0)
	}
	for _, dim := range []int{516, 517, 1000} { // |D| within a hair of 2^31
		check(dim, 9, true)
	}
}

func TestDotRowsI8MaskShapeMismatchPanics(t *testing.T) {
	for _, tc := range []struct{ rows, words, scales int }{{65, 1, 65}, {65, 3, 65}, {3, 1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%+v: no panic on shape mismatch", tc)
				}
			}()
			DotRowsI8Mask(make([]int32, tc.rows), make([]uint64, tc.words), make([]int8, tc.rows*4),
				make([]int16, 4), make([]float32, tc.scales), 1, 1, 0)
		}()
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

// The flat scan's kernel call: 256-row tiles with their scales and masks,
// τ = 0 so that about half of the random rows are flagged.
func benchDotRowsI8Mask(b *testing.B, kernel func([]int32, []uint64, []int8, []int16, []float32, float64, float64, float64)) {
	const rows, dim, tile = 50000, 64, 256
	r := rng.New(13)
	codes := make([]int8, rows*dim)
	q := make([]int16, dim)
	scales := make([]float32, rows)
	for i := range codes {
		codes[i] = int8(r.Intn(255) - 127)
	}
	for i := range q {
		q[i] = int16(r.Intn(65535) - 32767)
	}
	for i := range scales {
		scales[i] = float32(r.Float64())
	}
	dst := make([]int32, tile)
	mask := make([]uint64, tile/64)
	b.SetBytes(int64(rows * dim))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < rows; lo += tile {
			n := min(tile, rows-lo)
			kernel(dst[:n], mask[:(n+63)/64], codes[lo*dim:(lo+n)*dim], q, scales[lo:lo+n], 1e-6, 1, 0)
		}
	}
}

func BenchmarkDotRowsI8MaskScan50k(b *testing.B)    { benchDotRowsI8Mask(b, DotRowsI8Mask) }
func BenchmarkDotRowsI8MaskRefScan50k(b *testing.B) { benchDotRowsI8Mask(b, DotRowsI8MaskRef) }
