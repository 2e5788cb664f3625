// Package eges reimplements the paper's previous production system —
// Enhanced Graph Embedding with Side information (Wang et al., KDD 2018) —
// as the Table III baseline.
//
// EGES differs from SISG in exactly the ways §II-D criticizes:
//
//   - It first collapses behaviour sequences into an item co-occurrence
//     graph (losing the user link, so no user metadata) and trains on
//     DeepWalk-style random walks over that graph.
//   - Item SI enters through the model, not the corpus: an item's input
//     representation is the attention-weighted average of its own vector
//     and its SI vectors, H_i = Σ_j softmax(a_i)_j · W_j. SI values have no
//     output vectors, which is the expressiveness gap §IV-A points out.
//   - Windows are symmetric; behavioural asymmetry is ignored.
//
// Serving-time similarity is cosine between aggregated embeddings H_i.
package eges

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sisg/internal/alias"
	"sisg/internal/cacheline"
	"sisg/internal/corpus"
	"sisg/internal/emb"
	"sisg/internal/knn"
	"sisg/internal/rng"
	"sisg/internal/sgns"
	"sisg/internal/vecmath"
)

// Options configures EGES training.
type Options struct {
	Dim          int
	Window       int     // symmetric window over walk positions
	Negatives    int     // negative samples per positive pair
	Epochs       int     // passes over the walk corpus
	LR           float32 // initial learning rate, linearly decayed
	WalksPerNode int
	WalkLength   int
	Workers      int
	Seed         uint64
}

// Defaults mirrors the sgns defaults where the concepts coincide.
func Defaults() Options {
	return Options{
		Dim:          32,
		Window:       5,
		Negatives:    5,
		Epochs:       2,
		LR:           0.025,
		WalksPerNode: 2,
		WalkLength:   10,
		Seed:         1,
	}
}

// Validate reports the first invalid option.
func (o *Options) Validate() error {
	switch {
	case o.Dim <= 0:
		return errors.New("eges: Dim must be positive")
	case o.Window <= 0:
		return errors.New("eges: Window must be positive")
	case o.Negatives < 0:
		return errors.New("eges: Negatives must be non-negative")
	case o.Epochs <= 0:
		return errors.New("eges: Epochs must be positive")
	case o.LR <= 0:
		return errors.New("eges: LR must be positive")
	case o.WalksPerNode <= 0 || o.WalkLength < 2:
		return errors.New("eges: walk parameters out of range")
	}
	return nil
}

// Model is a trained EGES model.
type Model struct {
	Dict *corpus.Dict
	// In holds input vectors for all dictionary tokens (items use their own
	// row; SI vectors are shared across items, as in EGES). Out holds
	// output vectors for ITEMS only (SI has none — the §IV-A observation).
	In  *emb.Matrix
	Out *emb.Matrix
	// Attn holds per-item attention logits over {item, SI_1..SI_n}.
	Attn [][1 + corpus.NumSIColumns]float32
	// H is the aggregated per-item embedding, materialized after training.
	H *emb.Matrix

	Stats Stats

	index *knn.Index
}

// Stats reports training effort.
type Stats struct {
	Walks   int
	Pairs   uint64
	Elapsed time.Duration
}

// Walker abstracts the random-walk corpus source (satisfied by
// *graph.Graph).
type Walker interface {
	WalkCorpus(walksPerNode, walkLength int, seed uint64) [][]int32
}

// Train builds the walk corpus from the item graph and trains EGES.
func Train(d *corpus.Dict, g Walker, opt Options) (*Model, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	walks := g.WalkCorpus(opt.WalksPerNode, opt.WalkLength, opt.Seed^0xe9e5)
	if len(walks) == 0 {
		return nil, errors.New("eges: empty walk corpus")
	}
	return trainOnWalks(d, walks, opt)
}

// trainOnWalks trains EGES on a walk corpus, under options Train validated.
func trainOnWalks(d *corpus.Dict, walks [][]int32, opt Options) (*Model, error) {
	numItems := d.NumItems
	master := rng.New(opt.Seed)

	m := &Model{
		Dict: d,
		In:   emb.NewMatrix(d.Len(), opt.Dim),
		Out:  emb.NewMatrix(numItems, opt.Dim),
		Attn: make([][1 + corpus.NumSIColumns]float32, numItems),
	}
	inv := 1 / float32(opt.Dim)
	data := m.In.Data()
	for i := range data {
		data[i] = (master.Float32() - 0.5) * inv
	}
	// Start attention with the item's own vector dominant (~50% weight vs
	// ~6% each SI): aggregation should begin near plain DeepWalk and let
	// training shift weight toward SI where the item is data-starved.
	for i := range m.Attn {
		m.Attn[i][0] = 2
	}

	// Noise distribution over items by walk frequency^alpha.
	counts := make([]uint64, numItems)
	var totalTokens uint64
	for _, w := range walks {
		for _, v := range w {
			counts[v]++
		}
		totalTokens += uint64(len(w))
	}
	noise, err := alias.New(sgns.NoiseWeights(counts))
	if err != nil {
		return nil, fmt.Errorf("eges: noise distribution: %w", err)
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(walks) {
		workers = len(walks)
	}
	total := totalTokens * uint64(opt.Epochs)

	start := time.Now()
	var wg sync.WaitGroup
	var doneTokens, pairs atomic.Uint64
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(shard int, st *trainerState) {
			defer wg.Done()
			for ep := 0; ep < opt.Epochs; ep++ {
				for i := shard; i < len(walks); i += workers {
					st.lr = sgns.DecayLR(opt.LR, doneTokens.Add(uint64(len(walks[i]))), total)
					st.trainWalk(walks[i])
				}
			}
			pairs.Add(st.pairs)
		}(wk, newTrainerState(m, &opt, noise, master.Split()))
	}
	wg.Wait()

	m.Stats = Stats{Walks: len(walks), Pairs: pairs.Load(), Elapsed: time.Since(start)}
	m.materializeH()
	return m, nil
}

type trainerState struct {
	m     *Model
	opt   *Options
	walk  sgns.Walk
	r     rng.RNG
	noise *alias.Table
	h     []float32 // aggregated input embedding H_i
	dh    []float32 // gradient w.r.t. H_i
	negs  []int32   // the current pair's negative samples
	alph  []float32 // softmax attention weights
	lr    float32
	pairs uint64
}

// newTrainerState allocates one shard's state as one padded block
// (cacheline.Alloc): the struct with its RNG stream, the negative draws,
// and the attention weights, H_i and its gradient. Every pair writes all of
// them; in blocks of their own no two shards write one cache line.
func newTrainerState(m *Model, opt *Options, noise *alias.Table, r *rng.RNG) *trainerState {
	const na = 1 + corpus.NumSIColumns
	st, negs, f := cacheline.Alloc[trainerState](opt.Negatives, na+2*opt.Dim)
	*st = trainerState{
		m: m, opt: opt, r: *r, noise: noise,
		// Walks are already a sample: stride 1, both sides, no subsampling.
		walk: sgns.NewWalk(opt.Window, 1, false),
		alph: f[:na:na],
		h:    f[na : na+opt.Dim : na+opt.Dim],
		dh:   f[na+opt.Dim:],
		negs: negs,
	}
	return st
}

// aggregate computes H_i and the softmax weights for item i into st.h and
// st.alph.
func (st *trainerState) aggregate(item int32) {
	m := st.m
	si := m.Dict.ItemSI[item]
	a := &m.Attn[item]
	var sum float32
	for j := range st.alph {
		e := float32(math.Exp(float64(a[j])))
		st.alph[j] = e
		sum += e
	}
	invSum := 1 / sum
	vecmath.Zero(st.h)
	vecmath.Axpy(st.alph[0]*invSum, m.In.Row(item), st.h)
	for k, sid := range si {
		vecmath.Axpy(st.alph[k+1]*invSum, m.In.Row(sid), st.h)
	}
	for j := range st.alph {
		st.alph[j] *= invSum
	}
}

func (st *trainerState) trainWalk(walk []int32) {
	for i := range walk {
		lo, hi := st.walk.Span(&st.r, i, len(walk))
		for j := lo; j <= hi; j++ {
			if j != i {
				st.trainPair(walk[i], walk[j])
			}
		}
	}
}

// trainPair applies one EGES update for (target item i, context item c):
// sgns's pair update with v = H_i and grad = dH_i, then dH_i backpropagated.
func (st *trainerState) trainPair(item, ctx int32) {
	m := st.m
	st.aggregate(item)
	sgns.TrainPair(m.Out, st.noise, &st.r, st.negs, st.h, st.dh, ctx, st.lr)

	// Backprop dh into the item vector, SI vectors and attention logits:
	// H = Σ α_j W_j ⇒ ∂L/∂W_j = α_j·dh, ∂L/∂a_j = α_j(dh·W_j − dh·H).
	si := m.Dict.ItemSI[item]
	dhH := vecmath.Dot(st.dh, st.h)
	a := &m.Attn[item]
	rows := [1 + corpus.NumSIColumns]int32{item}
	copy(rows[1:], si[:])
	for j, row := range rows {
		w := m.In.Row(row)
		dhW := vecmath.Dot(st.dh, w)
		vecmath.Axpy(st.alph[j], st.dh, w)
		// Attention updates share the pair's learning rate; gradients are
		// already scaled by lr through dh.
		a[j] += st.alph[j] * (dhW - dhH)
	}
	st.pairs++
}

// materializeH computes the final aggregated embeddings for serving.
func (m *Model) materializeH() {
	dim := m.In.Dim
	m.H = emb.NewMatrix(len(m.Attn), dim)
	st := trainerState{m: m, h: make([]float32, dim), alph: make([]float32, 1+corpus.NumSIColumns)}
	for i := range m.Attn {
		st.aggregate(int32(i))
		copy(m.H.Row(int32(i)), st.h)
	}
}

// Index returns (building on first use) the cosine retrieval index over
// aggregated embeddings.
func (m *Model) Index() *knn.Index {
	if m.index == nil {
		m.index = knn.NewIndex(m.H, len(m.Attn), true)
	}
	return m.index
}

// Similar returns the top-k items most similar to query by cosine over H.
func (m *Model) Similar(ctx context.Context, query int32, k int) ([]knn.Result, error) {
	return m.Index().Query(ctx, m.H.Row(query), knn.Options{
		K:         k,
		Normalize: true,
		Skip:      func(id int32) bool { return id == query },
	})
}
