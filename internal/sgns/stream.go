// Incremental SGNS: the streaming counterpart of Train/Resume.
//
// A Live trainer owns a fixed-capacity embedding model (rows = the
// vocabulary admission budget) and consumes token-row sequences one at a
// time, applying the same reduced-window/subsample/negative-sampling
// updates as the batch trainer — but with a constant learning rate (a
// stream has no "fraction done" to decay over; word2vec's decay exists to
// anneal a finite corpus) and a noise distribution rebuilt periodically
// from the live counts instead of once up front. Training is
// single-threaded by design: determinism is the contract (the same stream
// produces the same matrix, bit for bit), and snapshot cuts need a
// quiescent matrix anyway.
package sgns

import (
	"errors"
	"fmt"
	"math"

	"sisg/internal/alias"
	"sisg/internal/emb"
	"sisg/internal/rng"
	"sisg/internal/vecmath"
	"sisg/internal/vocab"
)

// LiveOptions configures an incremental trainer.
type LiveOptions struct {
	Capacity   int     // embedding rows (the vocabulary budget); must be positive
	Dim        int     // embedding dimension
	Window     int     // context window, in enriched-token units
	Negatives  int     // negatives per positive pair
	LR         float32 // constant streaming learning rate
	SubsampleT float64 // Mikolov subsampling threshold; 0 disables
	SIBoost    float64 // keep-prob multiplier for non-item rows (≤1)
	NoiseAlpha float64 // unigram exponent for negative sampling
	Stride     int     // reduced-window stride (1+NumSIColumns for SI variants)
	Directed   bool    // right-window sampling (§II-C)
	Seed       uint64
	// RebuildEvery re-derives the negative-sampling alias table after this
	// many consumed tokens. Rows admitted since the last rebuild train as
	// targets immediately but are not drawn as negatives until the next
	// rebuild — the streaming analogue of word2vec building its table from
	// a frozen vocabulary. <=0 means 4096.
	RebuildEvery uint64
}

// LiveDefaults mirrors the batch Defaults for the fields both share.
func LiveDefaults(capacity int) LiveOptions {
	return LiveOptions{
		Capacity:     capacity,
		Dim:          32,
		Window:       5,
		Negatives:    5,
		LR:           0.025,
		SubsampleT:   1e-3,
		SIBoost:      0.5,
		NoiseAlpha:   0.75,
		Seed:         1,
		RebuildEvery: 4096,
	}
}

func (o *LiveOptions) validate() error {
	switch {
	case o.Capacity <= 0:
		return errors.New("sgns: Capacity must be positive")
	case o.Dim <= 0:
		return errors.New("sgns: Dim must be positive")
	case o.Window <= 0:
		return errors.New("sgns: Window must be positive")
	case o.Negatives < 0:
		return errors.New("sgns: Negatives must be non-negative")
	case o.LR <= 0:
		return errors.New("sgns: LR must be positive")
	case o.SIBoost < 0 || o.SIBoost > 1:
		return errors.New("sgns: SIBoost out of [0,1]")
	case o.NoiseAlpha <= 0:
		return errors.New("sgns: NoiseAlpha must be positive")
	}
	return nil
}

// Live is an incremental SGNS trainer over a growing row set. Rows are
// appended by AddRow (up to Capacity) and trained by TrainSequence; the
// caller owns the token→row mapping. Not safe for concurrent use.
type Live struct {
	opt   LiveOptions
	model *emb.Model // Capacity × Dim, allocated once; rows < rows are live
	walk  Walk

	rows   int
	kinds  []vocab.Kind // per-row, for SIBoost
	counts []uint64     // per-row occurrences consumed
	total  uint64       // total tokens consumed
	keep   []float32    // per-row keep probability, set for a sequence's rows before it is subsampled; nil without subsampling

	r    *rng.RNG
	grad []float32
	kept []int32
	negs []int32 // the current pair's negative samples

	noise        alias.Table // rebuilt in place; no outcomes (N() == 0) until the first successful rebuild
	noiseW       []float64   // count^NoiseAlpha per row, as of noiseAt
	noiseAt      []uint64    // the count noiseW was computed from
	sinceRebuild uint64

	pairs uint64
}

// NewLive allocates the trainer and its full-capacity matrices up front:
// growth never reallocates, so snapshot copies and row views stay valid
// row indices forever.
func NewLive(opt LiveOptions) (*Live, error) {
	if opt.RebuildEvery <= 0 {
		opt.RebuildEvery = 4096
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	var keep []float32
	if opt.SubsampleT > 0 {
		keep = make([]float32, opt.Capacity)
	}
	return &Live{
		opt: opt,
		model: &emb.Model{
			In:  emb.NewMatrix(opt.Capacity, opt.Dim),
			Out: emb.NewMatrix(opt.Capacity, opt.Dim),
		},
		walk:    NewWalk(opt.Window, opt.Stride, opt.Directed),
		keep:    keep,
		kinds:   make([]vocab.Kind, 0, opt.Capacity),
		counts:  make([]uint64, 0, opt.Capacity),
		noiseW:  make([]float64, 0, opt.Capacity),
		noiseAt: make([]uint64, 0, opt.Capacity),
		r:       rng.New(opt.Seed),
		grad:    make([]float32, opt.Dim),
		kept:    make([]int32, 0, 64),
		negs:    make([]int32, opt.Negatives),
	}, nil
}

// AddRow appends a row for a newly admitted token and applies word2vec
// initialization (input uniform in ±0.5/dim, output zero). It returns the
// new row index and panics when the capacity is exhausted — admission is
// the caller's budget gate, so overflow here is a bookkeeping bug.
func (l *Live) AddRow(kind vocab.Kind) int32 {
	if l.rows >= l.opt.Capacity {
		panic(fmt.Sprintf("sgns: AddRow beyond capacity %d", l.opt.Capacity))
	}
	row := int32(l.rows)
	in := l.model.In.Row(row)
	inv := 1 / float32(l.opt.Dim)
	for i := range in {
		in[i] = (l.r.Float32() - 0.5) * inv
	}
	vecmath.Zero(l.model.Out.Row(row))
	l.rows++
	l.kinds = append(l.kinds, kind)
	l.counts = append(l.counts, 0)
	return row
}

// SetRow overwrites a row's vectors — the Eq. 6 seeding hook: a cold item
// becomes servable with an SI-composed embedding before its first gradient
// step. Slices shorter than Dim leave the remainder as initialized.
func (l *Live) SetRow(row int32, in, out []float32) {
	copy(l.model.In.Row(row), in)
	copy(l.model.Out.Row(row), out)
}

// TrainSequence consumes one enriched sequence of row indices: counts are
// bumped, frequent rows are subsampled on the fly, and every surviving
// (target, context) pair in the reduced window gets one SGNS update.
func (l *Live) TrainSequence(seq []int32) {
	opt := &l.opt
	for _, row := range seq {
		l.counts[row]++
	}
	l.total += uint64(len(seq))
	l.sinceRebuild += uint64(len(seq))
	if l.noise.N() == 0 || l.sinceRebuild >= opt.RebuildEvery {
		l.rebuildNoise()
	}

	// Keep probabilities come from the live counts, this sequence's
	// included: the batch trainers' table, refreshed per sequence.
	if l.keep != nil {
		for _, row := range seq {
			l.keep[row] = keepProb(l.counts[row], l.total, l.kinds[row], opt.SubsampleT, opt.SIBoost)
		}
	}
	l.kept = Subsample(l.kept, seq, l.keep, l.r)
	kept, m := l.kept, l.model
	for i := range kept {
		lo, hi := l.walk.Span(l.r, i, len(kept))
		v := m.In.Row(kept[i])
		for j := lo; j <= hi; j++ {
			if j != i {
				TrainPair(m.Out, &l.noise, l.r, l.negs, v, l.grad, kept[j], opt.LR)
				vecmath.Add(l.grad, v)
			}
		}
		l.pairs += uint64(hi - lo)
	}
}

// rebuildNoise re-derives the negative-sampling table from the live counts.
// It runs every RebuildEvery tokens against every live row, so it keeps its
// weights between calls — count^α is recomputed only for a row whose count
// moved — and rebuilds the table in its own storage. The table is the one
// alias.New(count^α over all live rows) builds, bit for bit.
func (l *Live) rebuildNoise() {
	l.sinceRebuild = 0
	// Capacity-sized and zeroed at NewLive: a row admitted since the last
	// rebuild enters at count 0, weight 0.
	l.noiseW, l.noiseAt = l.noiseW[:l.rows], l.noiseAt[:l.rows]
	for i, c := range l.counts {
		if c != l.noiseAt[i] {
			l.noiseW[i] = math.Pow(float64(c), l.opt.NoiseAlpha)
			l.noiseAt[i] = c
		}
	}
	// Rebuild fails only on all-zero counts (rows admitted, nothing
	// consumed yet) and then leaves the table alone: the previous
	// distribution stands, or none — TrainPair then draws no negatives.
	_ = l.noise.Rebuild(l.noiseW)
}

// Rows returns how many rows are live.
func (l *Live) Rows() int { return l.rows }

// Model exposes the live matrices. Rows >= Rows() are uninitialized
// capacity; snapshot writers copy only the live prefix.
func (l *Live) Model() *emb.Model { return l.model }

// KindOf returns the kind recorded for a live row.
func (l *Live) KindOf(row int32) vocab.Kind { return l.kinds[row] }

// Count returns how many occurrences of row have been consumed.
func (l *Live) Count(row int32) uint64 { return l.counts[row] }

// Pairs returns how many positive pairs have been trained.
func (l *Live) Pairs() uint64 { return l.pairs }

// Updates returns pairs × (1+negatives) applied so far.
func (l *Live) Updates() uint64 { return l.pairs * uint64(1+l.opt.Negatives) }

// Tokens returns total tokens consumed (before subsampling).
func (l *Live) Tokens() uint64 { return l.total }
