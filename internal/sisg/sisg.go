// Package sisg is the core of this repository: the Side-Information-
// enhanced Skip-Gram framework of the paper (§II).
//
// The framework's central idea is disarmingly simple: instead of changing
// the model, change the *corpus*. A user session (v1 … vp) is enriched by
// injecting each item's side-information tokens right after the item and
// appending the user-type token (Eq. 4):
//
//	v1, SI¹_1 … SI¹_n, v2, SI²_1 … , …, vp, SIᵖ_1 …, UT_u
//
// and the result is fed to any standard SGNS implementation. Items, SI
// values and user types end up in one joint semantic space, which is what
// makes the cold-start recipes (Eq. 6 for items; user-type averaging for
// users) possible.
//
// The package defines the paper's six model variants (Table III), performs
// the enrichment, delegates training to internal/sgns, and exposes the
// serving-side operations: similar-item retrieval with the correct scoring
// rule per variant, and both cold-start inference paths.
package sisg

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sisg/internal/checkpoint"
	"sisg/internal/corpus"
	"sisg/internal/emb"
	"sisg/internal/knn"
	"sisg/internal/sgns"
	"sisg/internal/vecmath"
	"sisg/internal/vocab"
)

// Variant selects which SISG components are active (§IV-A's model list).
type Variant struct {
	Name        string
	UseSI       bool // "F": inject item side information
	UseUserType bool // "U": append the user-type token
	Directed    bool // "D": right-window sampling + in·out similarity
}

// The six variants evaluated in Table III.
var (
	VariantSGNS    = Variant{Name: "SGNS"}
	VariantSISGF   = Variant{Name: "SISG-F", UseSI: true}
	VariantSISGU   = Variant{Name: "SISG-U", UseUserType: true}
	VariantSISGFU  = Variant{Name: "SISG-F-U", UseSI: true, UseUserType: true}
	VariantSISGFUD = Variant{Name: "SISG-F-U-D", UseSI: true, UseUserType: true, Directed: true}
)

// Variants returns the SISG variants of Table III in paper order (EGES is a
// separate implementation in internal/eges).
func Variants() []Variant {
	return []Variant{VariantSGNS, VariantSISGF, VariantSISGU, VariantSISGFU, VariantSISGFUD}
}

// VariantByName resolves a name like "SISG-F-U-D" (case-sensitive).
func VariantByName(name string) (Variant, error) {
	for _, v := range Variants() {
		if v.Name == name {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("sisg: unknown variant %q", name)
}

// Enrich converts sessions into token-ID training sequences per Eq. 4,
// honouring the variant's flags. With neither flag set the output is the
// plain item sequence (classic SGNS).
func Enrich(d *corpus.Dict, sessions []corpus.Session, v Variant) [][]int32 {
	out := make([][]int32, len(sessions))
	perItem := 1
	if v.UseSI {
		perItem += corpus.NumSIColumns
	}
	for i := range sessions {
		s := &sessions[i]
		n := len(s.Items) * perItem
		if v.UseUserType {
			n++
		}
		seq := make([]int32, 0, n)
		for _, it := range s.Items {
			seq = append(seq, it)
			if v.UseSI {
				si := d.ItemSI[it]
				seq = append(seq, si[:]...)
			}
		}
		if v.UseUserType {
			seq = append(seq, d.UserType[s.UserType])
		}
		out[i] = seq
	}
	return out
}

// Model is a trained SISG model bound to its dataset dictionary.
type Model struct {
	Variant Variant
	Dict    *corpus.Dict
	Emb     *emb.Model
	Stats   sgns.Stats

	snap lazySnapshot // the model as a one-generation Snapshot
}

// lazySnapshot is a Snapshot built on first use and safe for concurrent
// first use: evaluation and experiment drivers fan queries out over a model
// nobody has queried yet.
type lazySnapshot struct {
	mu sync.Mutex // serialises the build
	p  atomic.Pointer[Snapshot]
}

func (l *lazySnapshot) get(build func() *Snapshot) *Snapshot {
	if s := l.p.Load(); s != nil {
		return s
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.p.Load()
	if s == nil {
		s = build()
		l.p.Store(s)
	}
	return s
}

// TrainOptions adapts sgns.Options for a variant (see walk). itemWindow is
// the window measured in *items*.
func TrainOptions(base sgns.Options, v Variant, itemWindow int) sgns.Options {
	opt := base
	opt.Window, opt.Stride, opt.Directed = v.walk(itemWindow, base.Stride)
	return opt
}

// walk returns the variant's window, stride and direction for an item-unit
// window, for the batch and the streaming trainer alike: SI-enhanced
// sequences are (1+NumSIColumns)× longer, so the window is widened
// proportionally and reduced in whole items — the paper: "we can adjust
// the window size, such that all possible pairs per sequence are sampled".
// Item-only sequences keep the given stride.
func (v Variant) walk(itemWindow, stride int) (int, int, bool) {
	if v.UseSI {
		stride = 1 + corpus.NumSIColumns
		itemWindow *= stride
	}
	return itemWindow, stride, v.Directed
}

// Train enriches the sessions for the variant and trains a model.
// base.Window is interpreted as the window in item units (see TrainOptions).
func Train(d *corpus.Dict, sessions []corpus.Session, v Variant, base sgns.Options) (*Model, error) {
	if d == nil {
		return nil, errors.New("sisg: nil dictionary")
	}
	seqs := Enrich(d, sessions, v)
	opt := TrainOptions(base, v, base.Window)
	m, st, err := sgns.Train(d.Dict, seqs, opt)
	if err != nil {
		return nil, fmt.Errorf("sisg: training %s: %w", v.Name, err)
	}
	return &Model{Variant: v, Dict: d, Emb: m, Stats: st}, nil
}

// Save writes the model file (sisg-train -out): a checkpoint.Snapshot that
// holds only the matrices, written atomically and CRC'd like a trainer
// checkpoint, whose options hash names cfg — the corpus config the model's
// dictionary was generated from — and the model's variant.
func (m *Model) Save(path string, cfg corpus.Config) error {
	return checkpoint.Save(path, &checkpoint.Snapshot{
		OptionsHash: modelIdentity(cfg, m.Variant),
		Model:       m.Emb,
	})
}

// LoadModel reads a model file written by Save and binds it to ds and v.
// It refuses a torn or corrupt file and a file of another format
// (checkpoint.ErrCorrupt), and a model trained for another corpus config or
// variant, a trainer checkpoint included (checkpoint.ErrOptionsMismatch).
func LoadModel(path string, ds *corpus.Dataset, v Variant) (*Model, error) {
	s, err := checkpoint.Load(path)
	if err != nil {
		return nil, err
	}
	if err := s.CheckOptions(modelIdentity(ds.Cfg, v)); err != nil {
		return nil, fmt.Errorf("sisg: %s is not a %s model of corpus %s seed %d: %w", path, v.Name, ds.Cfg.Name, ds.Cfg.Seed, err)
	}
	// The config names the dictionary; a generator that changed under the
	// same config would still leave rows the dictionary cannot index.
	if s.Model.Vocab() != ds.Dict.Len() {
		return nil, fmt.Errorf("sisg: model has %d rows, dictionary %d tokens", s.Model.Vocab(), ds.Dict.Len())
	}
	return &Model{Variant: v, Dict: ds.Dict, Emb: s.Model}, nil
}

// modelIdentity is the options hash of a model file.
func modelIdentity(cfg corpus.Config, v Variant) uint64 {
	return checkpoint.HashOptions(cfg, v.Name)
}

// snapshot returns (building on first use) the model as a one-generation
// Snapshot: identity tables — item i in item row i, side token t in side
// row t − NumItems — over row-range views of the model's own matrices, so
// nothing is copied.
func (m *Model) snapshot() *Snapshot {
	return m.snap.get(func() *Snapshot {
		n, v := m.Dict.NumItems, m.Dict.Len()
		slot := make([]int32, v)
		for tok := range slot {
			slot[tok] = int32(tok)
			if tok >= n {
				slot[tok] -= int32(n)
			}
		}
		items := slot[:n:n] // the item half of slot is the identity list
		in, out := m.Emb.In, m.Emb.Out
		return newSnapshot(0, m.Variant, m.Dict, slot, items,
			in.View(n, v), out.View(n, v), in.View(0, n), out.View(0, n))
	})
}

// ItemIndex returns (building on first use) the retrieval index with the
// variant's scoring rule — the one index the model's snapshots share.
func (m *Model) ItemIndex() *knn.Index { return m.snapshot().index }

// QueryVector returns the vector to search with for item `query` under the
// variant's scoring rule. The slice must be treated as read-only.
func (m *Model) QueryVector(query int32) []float32 {
	return m.Emb.In.Row(query)
}

// Similar is Snapshot.Similar on the model's one generation.
func (m *Model) Similar(ctx context.Context, seeds []int32, opts knn.Options) ([][]knn.Result, error) {
	return m.snapshot().Similar(ctx, seeds, opts)
}

// SimilarOne is Similar for exactly one seed — the thin delegation the HTTP
// handlers and other single-seed callers use.
func (m *Model) SimilarOne(ctx context.Context, seed int32, opts knn.Options) ([]knn.Result, error) {
	batch, err := m.Similar(ctx, []int32{seed}, opts)
	if err != nil {
		return nil, err
	}
	return batch[0], nil
}

// SimilarToVector is Snapshot.SimilarToVector on the model's one generation.
func (m *Model) SimilarToVector(ctx context.Context, qv []float32, k int, skip func(int32) bool) ([]knn.Result, error) {
	return m.snapshot().SimilarToVector(ctx, qv, k, skip)
}

// RecommendForColdUser is Snapshot.RecommendForColdUser on the model's one
// generation.
func (m *Model) RecommendForColdUser(ctx context.Context, types []int32, k int) ([]knn.Result, error) {
	return m.snapshot().RecommendForColdUser(ctx, types, k)
}

// ColdStartItemVector infers an embedding for a new item from its side
// information only, per Eq. 6: v = Σ_k SI_k(v) over input vectors.
func (m *Model) ColdStartItemVector(si [corpus.NumSIColumns]vocab.ID) []float32 {
	v := make([]float32, m.Emb.Dim())
	for _, id := range si {
		if id >= 0 {
			vecmath.Add(m.Emb.In.Row(id), v)
		}
	}
	return v
}

// SeedColdItems overwrites the embedding rows of never-trained items with
// their SI-derived vectors, making them both *queryable* and *retrievable*:
// the input row becomes the Eq. 6 sum of SI input vectors, and the output
// row the matching aggregate of SI OUTPUT vectors (which exist in SISG —
// the expressiveness edge over EGES that §IV-A highlights). Aggregates are
// means rather than raw sums so seeded rows live on the same scale as
// trained rows inside the shared retrieval index. Call before ItemIndex.
func (m *Model) SeedColdItems(ids []int32) {
	// The snapshot's index may hold a normalized copy and an int8 mirror of
	// the rows about to change; rebuild it on next use.
	m.snap.p.Store(nil)
	cold := make(map[int32]bool, len(ids))
	for _, id := range ids {
		cold[id] = true
	}
	// Calibrate seeded rows to the scale of trained rows: SI vectors are
	// trained on orders of magnitude more pairs than any single item, so a
	// raw SI aggregate would outshine every warm item in a dot-product
	// index. Median warm norms are the reference.
	inNorm := medianNorm(m.Emb.In, m.Dict.NumItems, cold)
	outNorm := medianNorm(m.Emb.Out, m.Dict.NumItems, cold)
	for _, id := range ids {
		si := m.Dict.ItemSI[id]
		in := m.Emb.In.Row(id)
		out := m.Emb.Out.Row(id)
		vecmath.Zero(in)
		vecmath.Zero(out)
		for _, s := range si {
			vecmath.Add(m.Emb.In.Row(s), in)
			vecmath.Add(m.Emb.Out.Row(s), out)
		}
		scaleTo(in, inNorm)
		scaleTo(out, outNorm)
	}
}

// medianNorm returns the median L2 norm of the first rows of mat, skipping
// the excluded set (sampled for large matrices).
func medianNorm(mat *emb.Matrix, rows int, exclude map[int32]bool) float32 {
	var norms []float32
	step := 1
	if rows > 20000 {
		step = rows / 20000
	}
	for i := 0; i < rows; i += step {
		if exclude[int32(i)] {
			continue
		}
		norms = append(norms, vecmath.Norm(mat.Row(int32(i))))
	}
	if len(norms) == 0 {
		return 1
	}
	sort.Slice(norms, func(a, b int) bool { return norms[a] < norms[b] })
	return norms[len(norms)/2]
}

func scaleTo(v []float32, norm float32) {
	n := vecmath.Norm(v)
	if n > 0 && norm > 0 {
		vecmath.Scale(norm/n, v)
	}
}

// UserTypeVector returns the input vector of a user type (read-only).
func (m *Model) UserTypeVector(t int32) []float32 {
	return m.Emb.In.Row(m.Dict.UserType[t])
}
