package emb

import (
	"math"
	"testing"

	"sisg/internal/rng"
	"sisg/internal/vecmath"
)

func TestMatrixRows(t *testing.T) {
	m := NewMatrix(4, 3)
	if m.Rows() != 4 || m.Dim != 3 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Dim)
	}
	r2 := m.Row(2)
	r2[0], r2[1], r2[2] = 7, 8, 9
	if m.Data()[6] != 7 || m.Data()[8] != 9 {
		t.Fatal("Row view is not aliased into Data")
	}
	// Full-slice expression: appending to a row must not clobber the next.
	r := m.Row(1)
	r = append(r, 99)
	if m.Row(2)[0] != 7 {
		t.Fatal("append through row view overwrote the next row")
	}
	_ = r
}

func TestMatrixView(t *testing.T) {
	m := NewMatrix(5, 2)
	for i := range m.Data() {
		m.Data()[i] = float32(i)
	}
	v := m.View(1, 4)
	if v.Rows() != 3 || v.Dim != 2 || v.Row(0)[0] != 2 || v.Row(2)[1] != 7 {
		t.Fatalf("view rows %d, first %v, last %v", v.Rows(), v.Row(0), v.Row(2))
	}
	v.Row(1)[0] = -1
	if m.Row(2)[0] != -1 {
		t.Fatal("view is not aliased into the matrix")
	}
	if m.View(5, 5).Rows() != 0 {
		t.Fatal("empty view has rows")
	}
}

func TestNewModelInit(t *testing.T) {
	m := NewModel(10, 8, rng.New(1))
	bound := float32(0.5) / 8
	for i := 0; i < 10; i++ {
		in := m.In.Row(int32(i))
		var nonZero bool
		for _, v := range in {
			if v < -bound || v >= bound {
				t.Fatalf("input init out of range: %v", v)
			}
			if v != 0 {
				nonZero = true
			}
		}
		if !nonZero {
			t.Fatalf("input row %d all zero", i)
		}
		for _, v := range m.Out.Row(int32(i)) {
			if v != 0 {
				t.Fatal("output init must be zero")
			}
		}
	}
	if m.Dim() != 8 || m.Vocab() != 10 {
		t.Fatalf("Dim/Vocab = %d/%d", m.Dim(), m.Vocab())
	}
}

func TestScores(t *testing.T) {
	m := NewModel(3, 2, rng.New(1))
	copy(m.In.Row(0), []float32{1, 0})
	copy(m.In.Row(1), []float32{1, 1})
	copy(m.Out.Row(1), []float32{2, 3})
	if got := m.ScoreDirected(0, 1); got != 2 {
		t.Fatalf("ScoreDirected = %v", got)
	}
	want := float32(1 / math.Sqrt2)
	if got := m.ScoreCosine(0, 1); math.Abs(float64(got-want)) > 1e-6 {
		t.Fatalf("ScoreCosine = %v, want %v", got, want)
	}
}

func TestNormalizedCopy(t *testing.T) {
	m := NewMatrix(3, 4)
	copy(m.Row(0), []float32{3, 4, 0, 0})
	copy(m.Row(1), []float32{0, 0, 0, 0}) // zero row stays zero
	copy(m.Row(2), []float32{1, 1, 1, 1})
	n := NormalizedCopy(m)
	if got := vecmath.Norm(n.Row(0)); math.Abs(float64(got)-1) > 1e-6 {
		t.Fatalf("row 0 norm %v", got)
	}
	if got := vecmath.Norm(n.Row(1)); got != 0 {
		t.Fatalf("zero row norm %v", got)
	}
	// Original untouched.
	if m.Row(0)[0] != 3 {
		t.Fatal("NormalizedCopy mutated the source")
	}
}
