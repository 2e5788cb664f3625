// Package emb stores skip-gram embedding matrices.
//
// Each vocabulary token owns two vectors (§II-C of the paper): an *input*
// vector used when the token is the target, and an *output* vector used
// when it is the context. Symmetric models discard output vectors at
// serving time; the directed SISG-…-D variant scores the ordered pair
// (vi → vj) as input(vi)·output(vj), so both matrices are first-class here.
//
// Matrices are single contiguous float32 slices (V×d row-major): one
// allocation, GC-friendly, and the layout every kernel in internal/vecmath
// assumes.
//
// The package has no binary codec: a model file is a checkpoint.Snapshot
// that holds only the model, written and read by internal/sisg. The one
// format here is the word2vec text export (SaveWord2VecText).
package emb

import (
	"sisg/internal/rng"
	"sisg/internal/vecmath"
)

// Matrix is a V×Dim row-major float32 matrix.
type Matrix struct {
	Dim  int
	data []float32
}

// NewMatrix allocates a zeroed V×dim matrix.
func NewMatrix(v, dim int) *Matrix {
	return &Matrix{Dim: dim, data: make([]float32, v*dim)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return len(m.data) / m.Dim }

// Row returns the i-th row as a mutable slice view.
func (m *Matrix) Row(i int32) []float32 {
	off := int(i) * m.Dim
	return m.data[off : off+m.Dim : off+m.Dim]
}

// View returns rows [lo, hi) as a matrix over the same storage: no copy.
func (m *Matrix) View(lo, hi int) *Matrix {
	return &Matrix{Dim: m.Dim, data: m.data[lo*m.Dim : hi*m.Dim : hi*m.Dim]}
}

// Data exposes the backing slice (used by internal/checkpoint and the
// distributed engine's shard transfers).
func (m *Matrix) Data() []float32 { return m.data }

// Model is the pair of matrices produced by training.
type Model struct {
	In  *Matrix // input (target) vectors
	Out *Matrix // output (context) vectors
}

// NewModel allocates a model for v tokens with the given dimension and
// applies word2vec initialization: inputs uniform in [-0.5/dim, 0.5/dim],
// outputs zero.
func NewModel(v, dim int, r *rng.RNG) *Model {
	m := &Model{In: NewMatrix(v, dim), Out: NewMatrix(v, dim)}
	inv := 1 / float32(dim)
	for i := range m.In.data {
		m.In.data[i] = (r.Float32() - 0.5) * inv
	}
	return m
}

// Dim returns the embedding dimension.
func (m *Model) Dim() int { return m.In.Dim }

// Vocab returns the number of token rows.
func (m *Model) Vocab() int { return m.In.Rows() }

// ScoreDirected returns the directed similarity input(a)·output(b), the
// §II-C scoring rule for asymmetric models.
func (m *Model) ScoreDirected(a, b int32) float32 {
	return vecmath.Dot(m.In.Row(a), m.Out.Row(b))
}

// ScoreCosine returns cosine(input(a), input(b)), the standard symmetric
// scoring rule ("we compute similarities using the standard cosine
// similarity", §IV-A).
func (m *Model) ScoreCosine(a, b int32) float32 {
	return vecmath.Cosine(m.In.Row(a), m.In.Row(b))
}

// NormalizedCopy returns a row-normalized copy of the given matrix, used by
// the KNN index to turn dot products into cosine similarities.
func NormalizedCopy(m *Matrix) *Matrix {
	out := NewMatrix(m.Rows(), m.Dim)
	copy(out.data, m.data)
	for i := 0; i < out.Rows(); i++ {
		vecmath.Normalize(out.Row(int32(i)))
	}
	return out
}
