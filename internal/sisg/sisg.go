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

	itemIndex lazyIndex // retrieval index over item rows
	userIndex lazyIndex // user→item index (directed models)
}

// lazyIndex is a knn.Index built on first use and safe for concurrent first
// use: evaluation and experiment drivers fan queries out over a model
// nobody has queried yet.
type lazyIndex struct {
	mu sync.Mutex // serialises the build
	p  atomic.Pointer[knn.Index]
}

func (l *lazyIndex) get(build func() *knn.Index) *knn.Index {
	if ix := l.p.Load(); ix != nil {
		return ix
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ix := l.p.Load()
	if ix == nil {
		ix = build()
		l.p.Store(ix)
	}
	return ix
}

// TrainOptions adapts sgns.Options for a variant: SI-enhanced sequences are
// (1+NumSIColumns)× longer, so the window is widened proportionally — the
// paper: "we can adjust the window size, such that all possible pairs per
// sequence are sampled". itemWindow is the window measured in *items*.
func TrainOptions(base sgns.Options, v Variant, itemWindow int) sgns.Options {
	opt := base
	opt.Directed = v.Directed
	w := itemWindow
	if v.UseSI {
		stride := 1 + corpus.NumSIColumns
		w *= stride
		opt.Stride = stride
	}
	opt.Window = w
	return opt
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

// ItemIndex returns (building on first use) the retrieval index with the
// variant's scoring rule: directed models search raw dot products against
// OUTPUT vectors; symmetric models search cosine against INPUT vectors.
func (m *Model) ItemIndex() *knn.Index {
	return m.itemIndex.get(func() *knn.Index {
		if m.Variant.Directed {
			return knn.NewIndex(m.Emb.Out, m.Dict.NumItems, false)
		}
		return knn.NewIndex(m.Emb.In, m.Dict.NumItems, true)
	})
}

// coldUserIndex returns (building on first use) the directed models'
// user→item index: item INPUT vectors under raw dot product.
func (m *Model) coldUserIndex() *knn.Index {
	return m.userIndex.get(func() *knn.Index {
		return knn.NewIndex(m.Emb.In, m.Dict.NumItems, false)
	})
}

// QueryVector returns the vector to search with for item `query` under the
// variant's scoring rule. The slice must be treated as read-only.
func (m *Model) QueryVector(query int32) []float32 {
	return m.Emb.In.Row(query)
}

// Similar is the unified matching-stage read path: the top-opts.K most
// similar items per seed, each seed's own id excluded — "a candidate set of
// similar items is obtained for each item that users have interacted with".
// One seed runs a single scan with a skip-self predicate; several seeds
// ride the engine's batched scan (each shard's rows streamed once for the
// whole batch), requesting k+1 neighbours and dropping each seed's own id
// afterwards, which is bit-identical to per-seed calls. opts.Index, NProbe
// and Quantized select the scan strategy (flat brute force or IVF ANN);
// Normalize and Skip are owned by the model so the variant's scoring rule
// and self-exclusion cannot be overridden. The context cancels the scan at
// tile boundaries; a cancelled call returns an error wrapping
// knn.ErrCanceled. Cancellation fails the whole batch.
func (m *Model) Similar(ctx context.Context, seeds []int32, opts knn.Options) ([][]knn.Result, error) {
	opts.Normalize = !m.Variant.Directed
	if len(seeds) == 1 {
		seed := seeds[0]
		opts.Skip = func(id int32) bool { return id == seed }
		rs, err := m.ItemIndex().Query(ctx, m.QueryVector(seed), opts)
		if err != nil {
			return nil, err
		}
		return [][]knn.Result{rs}, nil
	}
	k := opts.K
	opts.K = k + 1
	opts.Skip = nil
	qvs := make([][]float32, len(seeds))
	for i, q := range seeds {
		qvs[i] = m.QueryVector(q)
	}
	batch, err := m.ItemIndex().QueryBatch(ctx, qvs, opts)
	if err != nil {
		return nil, err
	}
	for i, rs := range batch {
		batch[i] = dropSelf(rs, seeds[i], k)
	}
	return batch, nil
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

// dropSelf removes self from a k+1-sized candidate list and trims to k.
func dropSelf(rs []knn.Result, self int32, k int) []knn.Result {
	out := rs[:0:len(rs)]
	for _, r := range rs {
		if r.ID != self {
			out = append(out, r)
		}
	}
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// SimilarToVector retrieves the top-k items for an arbitrary query vector
// (used by both cold-start paths). Directed models still search output
// vectors; symmetric models use cosine.
func (m *Model) SimilarToVector(ctx context.Context, qv []float32, k int, skip func(int32) bool) ([]knn.Result, error) {
	return m.ItemIndex().Query(ctx, qv, knn.Options{
		K:         k,
		Normalize: !m.Variant.Directed,
		Skip:      skip,
	})
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
	// The index may hold a normalized copy; force a rebuild.
	m.itemIndex.p.Store(nil)
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

// ColdStartItemVectorFromNames resolves SI token names through the
// dictionary and applies Eq. 6. Unknown names are skipped; if none resolve,
// an error is returned.
func (m *Model) ColdStartItemVectorFromNames(names []string) ([]float32, error) {
	v := make([]float32, m.Emb.Dim())
	resolved := 0
	for _, n := range names {
		if id, ok := m.Dict.Lookup(n); ok {
			vecmath.Add(m.Emb.In.Row(id), v)
			resolved++
		}
	}
	if resolved == 0 {
		return nil, fmt.Errorf("sisg: no SI names resolved out of %d", len(names))
	}
	return v, nil
}

// ColdStartUserVector implements §IV-C1: the average of the input vectors
// of every user type matching the given constraints ("we can take the
// average of all user type vectors which belong to a user type containing
// the 'female' and 'age 21-25' features"). types holds user-type indices
// into Dict.UserType.
func (m *Model) ColdStartUserVector(types []int32) ([]float32, error) {
	if len(types) == 0 {
		return nil, errors.New("sisg: no matching user types")
	}
	v := make([]float32, m.Emb.Dim())
	for _, t := range types {
		vecmath.Add(m.Emb.In.Row(m.Dict.UserType[t]), v)
	}
	vecmath.Scale(1/float32(len(types)), v)
	return v, nil
}

// UserTypeVector returns the input vector of a user type (read-only).
func (m *Model) UserTypeVector(t int32) []float32 {
	return m.Emb.In.Row(m.Dict.UserType[t])
}

// userQueryVector returns the averaged user-type vector used for cold-start
// user retrieval. Symmetric models average INPUT vectors (§IV-C1 verbatim).
// Directed models must average OUTPUT vectors: with right-window sampling
// the sequence-final user-type token never has a context, so its input
// vector is untrained; its output vector, however, is trained by every
// (item → UT) pair — "items clicked by this audience" — which is exactly
// the signal a cold-start recommendation needs.
func (m *Model) userQueryVector(types []int32) ([]float32, error) {
	if len(types) == 0 {
		return nil, errors.New("sisg: no matching user types")
	}
	v := make([]float32, m.Emb.Dim())
	src := m.Emb.In
	if m.Variant.Directed {
		src = m.Emb.Out
	}
	for _, t := range types {
		vecmath.Add(src.Row(m.Dict.UserType[t]), v)
	}
	vecmath.Scale(1/float32(len(types)), v)
	return v, nil
}

// RecommendForColdUser implements §IV-C1 end-to-end: average the vectors of
// all user types matching the user's known demographics, then retrieve the
// top-k items. For directed models the query is an averaged user-type
// OUTPUT vector scored against item INPUT vectors (in(item)·out(UT) is the
// trained "this audience clicks this item" direction); symmetric models use
// cosine between input vectors throughout.
func (m *Model) RecommendForColdUser(ctx context.Context, types []int32, k int) ([]knn.Result, error) {
	qv, err := m.userQueryVector(types)
	if err != nil {
		return nil, err
	}
	if m.Variant.Directed {
		return m.coldUserIndex().Query(ctx, qv, knn.Options{K: k})
	}
	return m.ItemIndex().Query(ctx, qv, knn.Options{K: k, Normalize: true})
}
