package alias

import (
	"math"
	"testing"
	"testing/quick"

	"sisg/internal/rng"
)

func TestErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty weights: want error")
	}
	if _, err := New([]float64{0, 0}); err == nil {
		t.Error("all-zero weights: want error")
	}
	if _, err := New([]float64{1, -1}); err == nil {
		t.Error("negative weight: want error")
	}
	if _, err := New([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN weight: want error")
	}
}

func TestSingleOutcome(t *testing.T) {
	tab, err := New([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if tab.Sample(r) != 0 {
			t.Fatal("single outcome must always be 0")
		}
	}
}

func TestZeroWeightNeverSampled(t *testing.T) {
	tab, err := New([]float64{1, 0, 2, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < 100000; i++ {
		s := tab.Sample(r)
		if s == 1 || s == 3 {
			t.Fatalf("sampled zero-weight index %d", s)
		}
	}
}

func TestDistributionMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4, 10, 0.5}
	tab, err := New(weights)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	const draws = 500000
	counts := make([]int, len(weights))
	r := rng.New(3)
	for i := 0; i < draws; i++ {
		counts[tab.Sample(r)]++
	}
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.005 {
			t.Errorf("index %d: got prob %.4f, want %.4f", i, got, want)
		}
	}
}

func TestPropertyAllIndicesReachable(t *testing.T) {
	// Any positive weight must be sampled at least once in many draws.
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 20 {
			return true
		}
		weights := make([]float64, len(raw))
		anyPositive := false
		for i, v := range raw {
			weights[i] = float64(v%16) + 0 // 0..15
			if weights[i] > 0 {
				anyPositive = true
			}
		}
		if !anyPositive {
			return true
		}
		tab, err := New(weights)
		if err != nil {
			return false
		}
		r := rng.New(uint64(len(raw)))
		seen := make([]bool, len(weights))
		for i := 0; i < 20000; i++ {
			seen[tab.Sample(r)] = true
		}
		for i, w := range weights {
			if w > 0 && !seen[i] {
				return false
			}
			if w == 0 && seen[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryBytes(t *testing.T) {
	tab, err := New(make([]float64, 100, 100))
	if err == nil {
		t.Fatal("expected error for zero weights")
	}
	tab, err = New([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.MemoryBytes(); got != 3*8+3*4 {
		t.Fatalf("MemoryBytes = %d", got)
	}
	if tab.N() != 3 {
		t.Fatalf("N = %d", tab.N())
	}
}

// A table rebuilt in place, through growing, shrinking and repeated
// distributions, is the table New builds from the same weights, entry for
// entry; and a Rebuild that fails leaves the table as it was.
func TestRebuildEqualsNew(t *testing.T) {
	r := rng.New(9)
	tab := new(Table)
	for _, n := range []int{1, 5, 300, 301, 4096, 17, 4097} {
		weights := make([]float64, n)
		for i := range weights {
			if r.Intn(4) > 0 {
				weights[i] = math.Pow(float64(1+r.Intn(1000)), 0.75)
			}
		}
		weights[r.Intn(n)] = 1
		if err := tab.Rebuild(weights); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(weights)
		if err != nil {
			t.Fatal(err)
		}
		if tab.N() != fresh.N() {
			t.Fatalf("n=%d: rebuilt table has %d outcomes, want %d", n, tab.N(), fresh.N())
		}
		for i := range fresh.prob {
			if tab.prob[i] != fresh.prob[i] || tab.alias[i] != fresh.alias[i] {
				t.Fatalf("n=%d entry %d: rebuilt (%v, %d), New (%v, %d)", n, i, tab.prob[i], tab.alias[i], fresh.prob[i], fresh.alias[i])
			}
		}
	}
	before := append([]float64(nil), tab.prob...)
	for _, bad := range [][]float64{nil, {0, 0}, {1, -1}, {1, math.NaN()}} {
		if err := tab.Rebuild(bad); err == nil {
			t.Errorf("Rebuild(%v): want error", bad)
		}
	}
	if tab.N() != len(before) {
		t.Fatalf("failed Rebuild changed the outcome count to %d", tab.N())
	}
	for i := range before {
		if tab.prob[i] != before[i] {
			t.Fatal("failed Rebuild changed the table")
		}
	}
}
