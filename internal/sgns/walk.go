// The word2vec walk, written once for every trainer in the repository:
// batch Train, Live, dist's TNS workers and the EGES baseline. A sequence is
// subsampled, every kept token becomes a window centre whose reduced window
// is drawn once, and every other position inside that window is a context.
// What differs between the trainers is only who owns the rows a pair
// writes, so each keeps its own three-line context loop around Span and
// its own pair update; the draws, their order and the formulas are here.
//
//	kept := Subsample(scratch, seq, keep, r)
//	for i := range kept {
//		lo, hi := walk.Span(r, i, len(kept))
//		for j := lo; j <= hi; j++ {
//			if j != i { /* train (kept[i], kept[j]) */ }
//		}
//	}

package sgns

import (
	"math"

	"sisg/internal/alias"
	"sisg/internal/emb"
	"sisg/internal/rng"
	"sisg/internal/vecmath"
	"sisg/internal/vocab"
)

// The recipe's fixed values, the same for every trainer and every run.
const (
	// minLRFrac floors the linearly decayed learning rate at this share of
	// the initial one, as word2vec does.
	minLRFrac = 1e-4
	// noiseAlpha is the unigram exponent of negative sampling:
	// P_noise(v) ∝ freq(v)^0.75 (§III-C).
	noiseAlpha = 0.75
	// siBoost multiplies a non-item token's keep probability: the paper's
	// "aggressive" subsampling of side information (§III-A).
	siBoost = 0.5
)

// Walk is the reduced-window rule of one training run.
type Walk struct {
	stride, steps int
	directed      bool
}

// NewWalk returns the walk for a maximum window of window tokens, reduced in
// multiples of stride (0 or 1 is plain word2vec reduction; SI-enriched
// sequences step by their per-item token count, see Options.Stride), over
// the right context only when directed (§II-C).
func NewWalk(window, stride int, directed bool) Walk {
	stride = max(stride, 1)
	return Walk{stride: stride, steps: max(window/stride, 1), directed: directed}
}

// Span draws the reduced window of centre i among n kept tokens — uniform
// over {stride, 2·stride, …, steps·stride}, one r.Intn — and returns the
// positions lo..hi it covers, i among them. Both ends are clamped to the
// sequence, so a centre near the start keeps what left context it has, as
// in word2vec; a directed walk has none (lo = i).
func (w Walk) Span(r *rng.RNG, i, n int) (lo, hi int) {
	win := w.stride * (1 + r.Intn(w.steps))
	lo, hi = max(i-win, 0), min(i+win, n-1)
	if w.directed {
		lo = i
	}
	return lo, hi
}

// Subsample writes the tokens of seq that survive Mikolov subsampling into
// dst's storage and returns them: one r.Float32() per token, which keeps it
// when below keep[token]. A nil keep keeps every token and draws nothing. A
// sequence with fewer than two survivors has no pair, so it comes back
// empty and no window is drawn for it.
func Subsample(dst, seq []int32, keep []float32, r *rng.RNG) []int32 {
	kept := dst[:0]
	if keep == nil {
		kept = append(kept, seq...)
	} else {
		for _, t := range seq {
			if r.Float32() < keep[t] {
				kept = append(kept, t)
			}
		}
	}
	if len(kept) < 2 {
		return kept[:0]
	}
	return kept
}

// TrainPair is the SGNS update of one positive pair (v, ctx) with len(negs)
// negatives at learning rate lr, against the output rows of out. It zeroes
// grad, draws every negative from noise into negs and prefetches its row,
// then takes the positive step and the negative steps in draw order,
// skipping a draw equal to ctx as word2vec does. Drawing ahead overlaps the
// rows' cache misses; nothing else draws from r in between and the steps
// keep draw order, so the model is the one a draw-then-step loop makes, bit
// for bit. A table with no outcomes draws nothing, and the pair trains its
// positive term only. grad ends holding the gradient for v, which the
// caller applies: word2vec adds it to in(target), EGES backpropagates it
// through the attention.
func TrainPair(out *emb.Matrix, noise *alias.Table, r *rng.RNG, negs []int32, v, grad []float32, ctx int32, lr float32) {
	vecmath.Zero(grad)
	if noise.N() == 0 {
		negs = nil
	}
	for n := range negs {
		t := int32(noise.Sample(r))
		negs[n] = t
		vecmath.Prefetch(out.Row(t))
	}
	vecmath.PairStep(v, out.Row(ctx), grad, 1, lr)
	for _, t := range negs {
		if t != ctx {
			vecmath.PairStep(v, out.Row(t), grad, 0, lr)
		}
	}
}

// keepProb is Mikolov's probability of keeping one occurrence of a token
// seen count times among total: sqrt(t/f) + t/f at relative frequency f,
// capped at 1, and for a non-item token multiplied by siBoost. An unseen
// token is always kept.
func keepProb(count, total uint64, kind vocab.Kind, t float64) float32 {
	if count == 0 || total == 0 {
		return 1
	}
	f := float64(count) / float64(total)
	keep := math.Sqrt(t/f) + t/f
	if keep > 1 {
		keep = 1
	}
	if kind != vocab.KindItem {
		keep *= siBoost
	}
	return float32(keep)
}

// KeepProbs is the keep table Subsample reads for a corpus of total tokens
// with the given per-token counts: keepProb of every dictionary token.
func KeepProbs(dict *vocab.Dict, counts []uint64, total uint64, t float64) []float32 {
	p := make([]float32, len(counts))
	for i, c := range counts {
		p[i] = keepProb(c, total, dict.KindOf(int32(i)), t)
	}
	return p
}

// NoiseWeights returns count^noiseAlpha per token; zero-count tokens get
// zero weight and are never drawn.
func NoiseWeights(counts []uint64) []float64 {
	w := make([]float64, len(counts))
	for i, c := range counts {
		if c > 0 {
			w[i] = math.Pow(float64(c), noiseAlpha)
		}
	}
	return w
}

// DecayLR is word2vec's linear learning-rate decay: lr0 scaled by the share
// of total tokens not yet consumed, floored at minLRFrac.
func DecayLR(lr0 float32, done, total uint64) float32 {
	f := 1 - float32(float64(done)/float64(total))
	if f < minLRFrac {
		f = minLRFrac
	}
	return lr0 * f
}
