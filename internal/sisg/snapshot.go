package sisg

import (
	"context"
	"fmt"
	"time"

	"sisg/internal/corpus"
	"sisg/internal/emb"
	"sisg/internal/knn"
	"sisg/internal/model"
	"sisg/internal/vecmath"
	"sisg/internal/vocab"
)

// Snapshot is one immutable model generation, the package's one
// model.Snapshot: the items' embeddings in compact rows with the variant's
// retrieval index; the SI and user-type embeddings (for Eq. 6 composition
// and user-type queries); and the dictionary for name resolution. A stream
// generation gathers its admitted rows into fresh matrices
// (Streamer.Publish); a batch model is a one-generation snapshot whose
// tables are the identity and whose matrices are views of its own
// (Model.snapshot).
type Snapshot struct {
	gen  uint64
	at   time.Time
	v    Variant
	dict *corpus.Dict

	// slot maps a universe token id to its compact row — in the item
	// matrices for an item token, in the side matrices for any other — or
	// -1 while the token is not admitted.
	slot  []int32
	items []int32 // compact item row -> catalog item id

	in, out   *emb.Matrix // SI and user-type vectors, side-row order
	itemIn    *emb.Matrix // item input vectors
	itemOut   *emb.Matrix // item output vectors
	index     *knn.Index  // variant-scored retrieval index
	userIndex *knn.Index  // directed cold-user index (in-vectors, raw dot)
}

var _ model.Snapshot = (*Snapshot)(nil)

// newSnapshot assembles a generation over the given tables and matrices
// (which it keeps, never copies) and builds the variant's retrieval index:
// directed models search raw dot products against item OUTPUT vectors,
// symmetric models cosine against item INPUT vectors. Directed models also
// get the cold-user index over item input vectors.
func newSnapshot(gen uint64, v Variant, dict *corpus.Dict, slot, items []int32, in, out, itemIn, itemOut *emb.Matrix) *Snapshot {
	s := &Snapshot{
		gen: gen, at: time.Now(), v: v, dict: dict, slot: slot, items: items,
		in: in, out: out, itemIn: itemIn, itemOut: itemOut,
	}
	n := len(items)
	if v.Directed {
		s.index = knn.NewIndex(itemOut, n, false)
		s.userIndex = knn.NewIndex(itemIn, n, false)
	} else {
		s.index = knn.NewIndex(itemIn, n, true)
	}
	return s
}

// NewModelSnapshot publishes m as generation gen: a copy of the model's one
// snapshot, sharing its indexes (there is one index per model), stamped
// with gen and the time. Both indexes get the int8 mirror their flat scans
// read first here: a snapshot must never mutate after publication, and no
// request should wait behind a build.
func NewModelSnapshot(m *Model, gen uint64) *Snapshot {
	s := *m.snapshot()
	s.gen, s.at = gen, time.Now()
	s.index.BuildQuantized()
	if s.userIndex != nil {
		s.userIndex.BuildQuantized()
	}
	return &s
}

func (s *Snapshot) Generation() uint64     { return s.gen }
func (s *Snapshot) PublishedAt() time.Time { return s.at }
func (s *Snapshot) Variant() string        { return s.v.Name }
func (s *Snapshot) Dim() int               { return s.itemIn.Dim }
func (s *Snapshot) VocabSize() int         { return len(s.items) + s.in.Rows() }
func (s *Snapshot) NumItems() int          { return len(s.items) }
func (s *Snapshot) Index() *knn.Index      { return s.index }

// row returns the compact row of an admitted universe token within its
// class; false for an id outside the dictionary or a token the stream has
// not admitted.
func (s *Snapshot) row(tok vocab.ID) (int32, bool) {
	if tok < 0 || int(tok) >= len(s.slot) || s.slot[tok] < 0 {
		return 0, false
	}
	return s.slot[tok], true
}

// itemRow is row for a catalog item id: false outside the catalog too.
func (s *Snapshot) itemRow(item int32) (int32, bool) {
	if !s.dict.IsItem(item) {
		return 0, false
	}
	return s.row(item)
}

// inputOf returns the input vector of an admitted token of either class.
func (s *Snapshot) inputOf(tok vocab.ID) ([]float32, bool) {
	r, ok := s.row(tok)
	if !ok {
		return nil, false
	}
	if s.dict.IsItem(tok) {
		return s.itemIn.Row(r), true
	}
	return s.in.Row(r), true
}

func (s *Snapshot) Servable(item int32) bool {
	_, ok := s.itemRow(item)
	return ok
}

// translate rewrites compact-row result ids into catalog item ids, in
// place (result slices are fresh per query).
func (s *Snapshot) translate(rs []knn.Result) []knn.Result {
	for i := range rs {
		rs[i].ID = s.items[rs[i].ID]
	}
	return rs
}

// Similar is the unified matching-stage read path: the top-opts.K most
// similar items per seed, each seed's own id excluded — "a candidate set of
// similar items is obtained for each item that users have interacted with".
// One seed runs a single scan with a skip-self predicate; several seeds
// ride the engine's batched scan (each shard's rows streamed once for the
// whole batch), requesting k+1 neighbours and dropping each seed's own id
// afterwards, which is bit-identical to per-seed calls. opts.Index, NProbe
// and Quantized select the scan strategy (flat brute force or IVF ANN);
// Normalize and Skip are owned by the snapshot so the variant's scoring
// rule and self-exclusion cannot be overridden. A seed the snapshot does
// not hold fails the call with model.ErrNotServable. The context cancels
// the scan at tile boundaries; a cancelled call returns an error wrapping
// knn.ErrCanceled. Cancellation fails the whole batch.
func (s *Snapshot) Similar(ctx context.Context, seeds []int32, opts knn.Options) ([][]knn.Result, error) {
	opts.Normalize = !s.v.Directed
	if len(seeds) == 1 {
		row, ok := s.itemRow(seeds[0])
		if !ok {
			return nil, model.ErrNotServable
		}
		opts.Skip = func(id int32) bool { return id == row }
		rs, err := s.index.Query(ctx, s.itemIn.Row(row), opts)
		if err != nil {
			return nil, err
		}
		return [][]knn.Result{s.translate(rs)}, nil
	}
	k := opts.K
	opts.K = k + 1
	opts.Skip = nil
	qvs := make([][]float32, len(seeds))
	for i, seed := range seeds {
		row, ok := s.itemRow(seed)
		if !ok {
			return nil, model.ErrNotServable
		}
		qvs[i] = s.itemIn.Row(row)
	}
	batch, err := s.index.QueryBatch(ctx, qvs, opts)
	if err != nil {
		return nil, err
	}
	for i, rs := range batch {
		batch[i] = dropSelf(s.translate(rs), seeds[i], k)
	}
	return batch, nil
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
// (used by both cold-start paths) under the variant's scoring rule; skip
// sees catalog item ids.
func (s *Snapshot) SimilarToVector(ctx context.Context, qv []float32, k int, skip func(int32) bool) ([]knn.Result, error) {
	opts := knn.Options{K: k, Normalize: !s.v.Directed}
	if skip != nil {
		opts.Skip = func(row int32) bool { return skip(s.items[row]) }
	}
	rs, err := s.index.Query(ctx, qv, opts)
	if err != nil {
		return nil, err
	}
	return s.translate(rs), nil
}

// ColdItemVector composes Eq. 6, v = Σ_k SI_k(v) over input vectors, for a
// catalog item over its ADMITTED SI rows. An item whose side information
// has not earned a single row yet cannot be composed — the stream simply
// has not seen its world — and is not servable.
func (s *Snapshot) ColdItemVector(item int32) ([]float32, error) {
	if item < 0 || int(item) >= s.dict.NumItems {
		return nil, model.ErrNotServable
	}
	v := make([]float32, s.in.Dim)
	resolved := 0
	for _, si := range s.dict.ItemSI[item] {
		if in, ok := s.inputOf(si); ok {
			vecmath.Add(in, v)
			resolved++
		}
	}
	if resolved == 0 {
		return nil, fmt.Errorf("sisg: no admitted SI for item %d: %w", item, model.ErrNotServable)
	}
	return v, nil
}

// ColdItemVectorFromNames resolves token names through the dictionary and
// applies Eq. 6. Unknown or unadmitted names are skipped; if none resolve,
// an error is returned.
func (s *Snapshot) ColdItemVectorFromNames(names []string) ([]float32, error) {
	v := make([]float32, s.in.Dim)
	resolved := 0
	for _, n := range names {
		id, ok := s.dict.Lookup(n)
		if !ok {
			continue
		}
		if in, ok := s.inputOf(id); ok {
			vecmath.Add(in, v)
			resolved++
		}
	}
	if resolved == 0 {
		return nil, fmt.Errorf("sisg: no SI names resolved out of %d", len(names))
	}
	return v, nil
}

// RecommendForColdUser implements §IV-C1 end-to-end: average the vectors of
// the admitted user types among types (indices into Dict.UserType, the
// types matching a user's known demographics), then retrieve the top-k
// items. Symmetric models average INPUT vectors (§IV-C1 verbatim) and use
// cosine against item input vectors. Directed models average OUTPUT
// vectors: with right-window sampling the sequence-final user-type token
// never has a context, so its input vector is untrained, while its output
// vector is trained by every (item → UT) pair — "items clicked by this
// audience". They score that query against item INPUT vectors by raw dot
// product, in(item)·out(UT) being the trained direction.
func (s *Snapshot) RecommendForColdUser(ctx context.Context, types []int32, k int) ([]knn.Result, error) {
	if len(types) == 0 {
		return nil, fmt.Errorf("sisg: no matching user types")
	}
	src := s.in
	if s.v.Directed {
		src = s.out
	}
	v := make([]float32, s.in.Dim)
	resolved := 0
	for _, t := range types {
		if row, ok := s.row(s.dict.UserType[t]); ok { // a user type: a side row
			vecmath.Add(src.Row(row), v)
			resolved++
		}
	}
	if resolved == 0 {
		return nil, fmt.Errorf("sisg: no admitted user types among %d matches: %w", len(types), model.ErrNotServable)
	}
	vecmath.Scale(1/float32(resolved), v)
	var rs []knn.Result
	var err error
	if s.v.Directed {
		rs, err = s.userIndex.Query(ctx, v, knn.Options{K: k})
	} else {
		rs, err = s.index.Query(ctx, v, knn.Options{K: k, Normalize: true})
	}
	if err != nil {
		return nil, err
	}
	return s.translate(rs), nil
}
