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
package emb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

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

// Data exposes the backing slice (used by persistence and the distributed
// engine's shard transfers).
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

// ---- Persistence ----
//
// Binary format (little-endian):
//
//	magic   [8]byte  "SISGEMB1"
//	vocab   uint32
//	dim     uint32
//	in      vocab*dim float32
//	out     vocab*dim float32

var magic = [8]byte{'S', 'I', 'S', 'G', 'E', 'M', 'B', '1'}

// ErrBadFormat reports a corrupt or foreign embedding file.
var ErrBadFormat = errors.New("emb: bad file format")

// Save writes the model in the binary format above.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(m.Vocab()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.Dim()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeFloats(bw, m.In.data); err != nil {
		return err
	}
	if err := writeFloats(bw, m.Out.data); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("emb: reading magic: %w", err)
	}
	if got != magic {
		return nil, ErrBadFormat
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("emb: reading header: %w", err)
	}
	v := int(binary.LittleEndian.Uint32(hdr[0:]))
	dim := int(binary.LittleEndian.Uint32(hdr[4:]))
	if v < 0 || dim <= 0 || dim > 1<<16 {
		return nil, ErrBadFormat
	}
	m := &Model{In: NewMatrix(v, dim), Out: NewMatrix(v, dim)}
	if err := readFloats(br, m.In.data); err != nil {
		return nil, err
	}
	if err := readFloats(br, m.Out.data); err != nil {
		return nil, err
	}
	return m, nil
}

func writeFloats(w io.Writer, fs []float32) error {
	buf := make([]byte, 4096)
	for len(fs) > 0 {
		n := len(buf) / 4
		if n > len(fs) {
			n = len(fs)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(fs[i]))
		}
		if _, err := w.Write(buf[:n*4]); err != nil {
			return err
		}
		fs = fs[n:]
	}
	return nil
}

func readFloats(r io.Reader, fs []float32) error {
	buf := make([]byte, 4096)
	for len(fs) > 0 {
		n := len(buf) / 4
		if n > len(fs) {
			n = len(fs)
		}
		if _, err := io.ReadFull(r, buf[:n*4]); err != nil {
			return fmt.Errorf("emb: reading floats: %w", err)
		}
		for i := 0; i < n; i++ {
			fs[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		fs = fs[n:]
	}
	return nil
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
