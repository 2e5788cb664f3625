package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedRestartsInPlace(t *testing.T) {
	var r RNG
	r.Seed(42)
	for i := 0; i < 100; i++ {
		r.Uint64()
	}
	r.Seed(7) // mid-stream: the old state must not leak into the new stream
	b := New(7)
	for i := 0; i < 1000; i++ {
		if x, y := r.Uint64(), b.Uint64(); x != y {
			t.Fatalf("Seed(7) and New(7) diverged at step %d: %x vs %x", i, x, y)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("zero seed produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - want
		chi2 += d * d / want
	}
	// 9 dof; p=0.001 critical value ≈ 27.88.
	if chi2 > 27.88 {
		t.Fatalf("chi-square %0.2f too high; counts %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		if f := r.Float32(); f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %v", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %v, want ~1", variance)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(9)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams matched %d/100 times", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(13).Split()
	b := New(13).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestPerm(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffle(t *testing.T) {
	r := New(19)
	s := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 45 {
		t.Fatalf("shuffle lost elements: %v", s)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(23)
	const p, n = 0.4, 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	want := (1 - p) / p // mean of failures before first success
	if mean := sum / n; math.Abs(mean-want) > 0.05 {
		t.Fatalf("geometric mean %v, want ~%v", mean, want)
	}
}

func TestGeometricPanics(t *testing.T) {
	for _, p := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%v) did not panic", p)
				}
			}()
			New(1).Geometric(p)
		}()
	}
}

func TestGeometricOne(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Geometric(1) != 0 {
			t.Fatal("Geometric(1) must be 0")
		}
	}
}

func TestZipfMonotone(t *testing.T) {
	r := New(29)
	z := NewZipf(r, 50, 1.0)
	counts := make([]int, 50)
	for i := 0; i < 200000; i++ {
		counts[z.Sample()]++
	}
	// Aggregate into quartiles: each quartile must outdraw the next.
	q := func(lo, hi int) int {
		s := 0
		for i := lo; i < hi; i++ {
			s += counts[i]
		}
		return s
	}
	if !(q(0, 12) > q(12, 25) && q(12, 25) > q(25, 37) && q(25, 37) > q(37, 50)) {
		t.Fatalf("Zipf quartiles not decreasing: %d %d %d %d", q(0, 12), q(12, 25), q(25, 37), q(37, 50))
	}
	if z.N() != 50 {
		t.Fatalf("N() = %d", z.N())
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(n=0) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

func TestZipfSingleOutcome(t *testing.T) {
	z := NewZipf(New(1), 1, 1)
	for i := 0; i < 10; i++ {
		if z.Sample() != 0 {
			t.Fatal("single-outcome Zipf must always return 0")
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := New(42)
	for i := 0; i < 100; i++ {
		r.Uint64()
	}
	saved := r.State()
	want := make([]uint64, 16)
	for i := range want {
		want[i] = r.Uint64()
	}
	restored := &RNG{}
	restored.SetState(saved)
	for i := range want {
		if got := restored.Uint64(); got != want[i] {
			t.Fatalf("restored stream diverges at %d: %d != %d", i, got, want[i])
		}
	}
}

func TestSetStateRejectsAllZero(t *testing.T) {
	r := &RNG{}
	r.SetState([4]uint64{})
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("all-zero state accepted; generator is stuck")
	}
}
