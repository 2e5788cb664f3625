package vecmath

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"sisg/internal/rng"
)

// fill populates a slice with values spread over several magnitudes so
// that accumulation-order differences would actually change roundings —
// uniform [0,1) data can mask schedule bugs because partial sums stay
// well-conditioned.
func fill(r *rng.RNG, x []float32) {
	for i := range x {
		x[i] = (r.Float32()*2 - 1) * float32(math.Pow(10, float64(r.Intn(7))-3))
	}
}

// The SIMD kernel (when present) must be bit-identical to the pure-Go
// reference on every shape: all dims crossing the 32/16-wide body and the
// scalar tail, and row counts including 0 and 1.
func TestDotRowsBitIdentical(t *testing.T) {
	r := rng.New(11)
	for _, dim := range []int{1, 2, 3, 4, 7, 8, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65, 100, 128, 200} {
		for _, n := range []int{0, 1, 2, 5, 17, 64} {
			rows := make([]float32, n*dim)
			q := make([]float32, dim)
			fill(r, rows)
			fill(r, q)
			got := make([]float32, n)
			want := make([]float32, n)
			DotRows(got, rows, q)
			DotRowsRef(want, rows, q)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("dim=%d n=%d row=%d: DotRows %x != DotRowsRef %x",
						dim, n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// Property form of the same guarantee over random shapes and values.
func TestDotRowsBitIdenticalProperty(t *testing.T) {
	f := func(seed uint64, dimRaw, nRaw uint8) bool {
		dim := int(dimRaw%150) + 1
		n := int(nRaw % 50)
		r := rng.New(seed)
		rows := make([]float32, n*dim)
		q := make([]float32, dim)
		fill(r, rows)
		fill(r, q)
		got := make([]float32, n)
		want := make([]float32, n)
		DotRows(got, rows, q)
		DotRowsRef(want, rows, q)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The 16-lane schedule is a reordering of the plain dot product, so the
// value must agree with Dot to within accumulation error (not bit-exactly
// — that is precisely why the reference kernel exists).
func TestDotRowsCloseToDot(t *testing.T) {
	r := rng.New(12)
	const dim, n = 67, 33
	rows := make([]float32, n*dim)
	q := make([]float32, dim)
	for i := range rows {
		rows[i] = r.Float32()*2 - 1
	}
	for i := range q {
		q[i] = r.Float32()*2 - 1
	}
	dst := make([]float32, n)
	DotRows(dst, rows, q)
	for i := 0; i < n; i++ {
		want := Dot(rows[i*dim:(i+1)*dim], q)
		if diff := math.Abs(float64(dst[i] - want)); diff > 1e-4 {
			t.Fatalf("row %d: DotRows %v vs Dot %v (diff %g)", i, dst[i], want, diff)
		}
	}
}

func TestDotRowsShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	DotRows(make([]float32, 3), make([]float32, 10), make([]float32, 4))
}

func BenchmarkDotRowsScan50k(b *testing.B) {
	const rows, dim = 50000, 64
	r := rng.New(13)
	data := make([]float32, rows*dim)
	q := make([]float32, dim)
	for i := range data {
		data[i] = r.Float32()
	}
	for i := range q {
		q[i] = r.Float32()
	}
	dst := make([]float32, rows)
	b.SetBytes(int64(rows * dim * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DotRows(dst, data, q)
	}
}

func BenchmarkDotRowsRefScan50k(b *testing.B) {
	const rows, dim = 50000, 64
	r := rng.New(13)
	data := make([]float32, rows*dim)
	q := make([]float32, dim)
	for i := range data {
		data[i] = r.Float32()
	}
	for i := range q {
		q[i] = r.Float32()
	}
	dst := make([]float32, rows)
	b.SetBytes(int64(rows * dim * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DotRowsRef(dst, data, q)
	}
}

// atKernel is one implementation of DotRowsAt's contract under test, with
// the contiguous-row kernel of the same family.
type atKernel struct {
	name string
	fn   func(dst, mat []float32, ids []int32, q []float32)
	row  func(dst, rows, q []float32)
}

// atKernels lists the DotRowsAt implementations this host runs: the
// exported wrapper, the pure-Go schedule, and the SIMD kernel if the
// platform installed one.
func atKernels() []atKernel {
	ks := []atKernel{{"DotRowsAt", DotRowsAt, DotRows}, {"dotRowsAtRef", dotRowsAtRef, DotRowsRef}}
	if dotRowsAtAsm != nil {
		ks = append(ks, atKernel{"dotRowsAtAsm", dotRowsAtAsm, dotRowsAsm})
	}
	return ks
}

// checkRowsAt scores ids of mat against q with every kernel and fails on
// the first score whose bits differ from DotRowsRef of that row alone, or
// from its family's contiguous kernel of that row. The one exception is a
// NaN against the reference: Go leaves NaN payloads unspecified, and the
// compiled dotSched16 commutes some of its adds (the product, not the lane,
// is the first operand), so where two different NaNs meet, the reference
// and the assembly may keep different ones. A NaN must still be a NaN, and
// its bits must be those its own family's DotRows scores.
func checkRowsAt(t *testing.T, kernels []atKernel, mat []float32, ids []int32, q []float32) {
	t.Helper()
	dim := len(q)
	ref := make([]float32, 1)
	fam := make([]float32, 1)
	for _, k := range kernels {
		got := make([]float32, len(ids))
		if len(ids) == 0 && k.name != "DotRowsAt" {
			continue // the unchecked kernels may assume len(ids) > 0
		}
		k.fn(got, mat, ids, q)
		for i, id := range ids {
			row := mat[int(id)*dim : (int(id)+1)*dim]
			DotRowsRef(ref, row, q)
			k.row(fam, row, q)
			g, r, f := math.Float32bits(got[i]), math.Float32bits(ref[0]), math.Float32bits(fam[0])
			bothNaN := got[i] != got[i] && ref[0] != ref[0]
			if g != f || (g != r && !bothNaN) {
				t.Fatalf("%s dim=%d n=%d i=%d id=%d: %x, DotRowsRef %x, same-family row kernel %x",
					k.name, dim, len(ids), i, id, g, r, f)
			}
		}
	}
}

// randomIDs draws n row ids out of rows: unsorted, with repeats, and with
// the first and the last row among them whenever n allows.
func randomIDs(r *rng.RNG, n, rows int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(r.Intn(rows))
	}
	if n > 0 {
		ids[r.Intn(n)] = 0
	}
	if n > 1 {
		ids[r.Intn(n)] = int32(rows - 1)
	}
	if n > 2 {
		ids[n-1] = ids[0] // a repeat
	}
	return ids
}

// DotRowsAt scores each gathered row bit for bit as DotRowsRef scores that
// row, on every kernel the host runs: every dim from 1 to 200 and the wide
// 516, 517 and 1000, where the 32- and 16-wide bodies and the scalar tail
// all run; id lists of every length from 0 to 300; and rows and queries
// seeded with NaN, ±Inf, ±0 and subnormal elements.
func TestDotRowsAtBitIdentical(t *testing.T) {
	kernels := atKernels()
	var names []string
	for _, k := range kernels {
		names = append(names, k.name)
	}
	t.Logf("DotRowsAt kernels checked: %v", names)
	r := rng.New(21)
	const rows = 37
	dims := []int{516, 517, 1000}
	for d := 1; d <= 200; d++ {
		dims = append(dims, d)
	}
	for _, dim := range dims {
		mat := make([]float32, rows*dim)
		q := make([]float32, dim)
		fill(r, mat)
		fill(r, q)
		for _, n := range []int{0, 1, 2, 3, 9, 17, 40} {
			checkRowsAt(t, kernels, mat, randomIDs(r, n, rows), q)
		}
	}
	for _, dim := range []int{7, 64} {
		mat := make([]float32, rows*dim)
		q := make([]float32, dim)
		fill(r, mat)
		fill(r, q)
		for n := 0; n <= 300; n++ {
			checkRowsAt(t, kernels, mat, randomIDs(r, n, rows), q)
		}
	}
	special := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), 0x1p-140, -0x1p-149, math.SmallestNonzeroFloat32,
	}
	for _, dim := range []int{1, 15, 16, 17, 33, 64, 100, 517} {
		for trial := 0; trial < 20; trial++ {
			mat := make([]float32, rows*dim)
			q := make([]float32, dim)
			fill(r, mat)
			fill(r, q)
			for i := 0; i < 1+len(mat)/50; i++ {
				mat[r.Intn(len(mat))] = special[r.Intn(len(special))]
			}
			if trial%2 == 1 {
				q[r.Intn(dim)] = special[r.Intn(len(special))]
			}
			checkRowsAt(t, kernels, mat, randomIDs(r, 1+r.Intn(60), rows), q)
		}
	}
}

// DotRowsAt refuses what its kernel could not read safely, before the
// kernel runs: an id out of range on either side, a dst whose length is
// not the id count, a matrix that is not whole rows of len(q), and an
// empty query.
func TestDotRowsAtPanicsOnBadShape(t *testing.T) {
	mat := make([]float32, 5*4)
	q := make([]float32, 4)
	for _, c := range []struct {
		name string
		dst  []float32
		mat  []float32
		ids  []int32
		q    []float32
	}{
		{"id past the last row", make([]float32, 2), mat, []int32{0, 5}, q},
		{"negative id", make([]float32, 1), mat, []int32{-1}, q},
		{"dst shorter than ids", make([]float32, 1), mat, []int32{0, 1}, q},
		{"dst longer than ids", make([]float32, 3), mat, []int32{0, 1}, q},
		{"mat not whole rows", make([]float32, 1), mat[:19], []int32{0}, q},
		{"empty query", nil, nil, nil, nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			DotRowsAt(c.dst, c.mat, c.ids, c.q)
		}()
	}
}

// BenchmarkDotRowsAtCold50k is the exact re-rank's shape: 800 sorted
// random ids over a 50k × 64 float matrix, as the survivors of one served
// query. The matrix itself evicts the core's caches: each iteration takes
// the next of 64 id sets, so about 12 MB of other rows (six times a 2 MB
// L2) pass between two uses of a row, and every row comes from the shared
// cache or memory. It reports ns per scored row for the gathered kernels
// and for one DotRows call per row, the loop DotRowsAt replaced.
func BenchmarkDotRowsAtCold50k(b *testing.B) {
	const rows, dim, n, sets = 50000, 64, 800, 64
	r := rng.New(23)
	mat := make([]float32, rows*dim)
	q := make([]float32, dim)
	fill(r, mat)
	fill(r, q)
	idSets := make([][]int32, sets)
	for s := range idSets {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(r.Intn(rows))
		}
		slices.Sort(ids)
		idSets[s] = ids
	}
	perRow := func(dst, mat []float32, ids []int32, q []float32) {
		for i, id := range ids {
			DotRows(dst[i:i+1], mat[int(id)*dim:(int(id)+1)*dim], q)
		}
	}
	dst := make([]float32, n)
	for _, k := range append(atKernels(), atKernel{"DotRows per row", perRow, nil}) {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.fn(dst, mat, idSets[i%sets], q)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
