package sgns

import (
	"fmt"
	"math"
	"testing"

	"sisg/internal/rng"
	"sisg/internal/vocab"
)

// bruteForcePairs states the walk's rule position by position, with no
// clamping: each token is kept when a draw falls below its keep probability
// (no draw without a table); a sequence of at least two kept tokens then
// draws one reduced window per centre, in order, and pairs the centre with
// every other kept position at most that far away — on its right only when
// directed.
func bruteForcePairs(seq []int32, keep []float32, window, stride int, directed bool, r *rng.RNG) [][2]int32 {
	var kept []int32
	for _, t := range seq {
		if keep == nil || r.Float32() < keep[t] {
			kept = append(kept, t)
		}
	}
	if len(kept) < 2 {
		return nil
	}
	stride = max(stride, 1)
	steps := max(window/stride, 1)
	var pairs [][2]int32
	for i := range kept {
		win := stride * (1 + r.Intn(steps))
		for j := range kept {
			if d := j - i; d != 0 && d <= win && -d <= win && !(directed && d < 0) {
				pairs = append(pairs, [2]int32{kept[i], kept[j]})
			}
		}
	}
	return pairs
}

// The walk against the brute-force statement of its rule: the same pairs in
// the same order, and the same draws — both leave the RNG in one state.
func TestWalkMatchesBruteForce(t *testing.T) {
	const vocabSize = 16
	r := rng.New(5)
	keep := make([]float32, vocabSize)
	for i := range keep {
		keep[i] = 0.3 + 0.7*r.Float32()
	}
	for _, stride := range []int{1, 9} {
		for _, itemWindow := range []int{1, 3} {
			for _, directed := range []bool{false, true} {
				for _, sub := range [][]float32{nil, keep} {
					window := itemWindow * stride
					walk := NewWalk(window, stride, directed)
					for n := 0; n <= 40; n++ {
						seq := make([]int32, n)
						for k := range seq {
							seq[k] = int32(r.Intn(vocabSize))
						}
						seed := r.Uint64()
						a, b := rng.New(seed), rng.New(seed)
						var got [][2]int32
						kept := Subsample(make([]int32, 0, n), seq, sub, a)
						for i := range kept {
							lo, hi := walk.Span(a, i, len(kept))
							for j := lo; j <= hi; j++ {
								if j != i {
									got = append(got, [2]int32{kept[i], kept[j]})
								}
							}
						}
						want := bruteForcePairs(seq, sub, window, stride, directed, b)
						name := fmt.Sprintf("stride %d window %d directed %v subsample %v length %d", stride, window, directed, sub != nil, n)
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s: walk pairs %v, rule pairs %v", name, got, want)
						}
						if a.State() != b.State() {
							t.Fatalf("%s: the walk and the rule drew different numbers of randoms", name)
						}
					}
				}
			}
		}
	}
}

func TestNoiseWeights(t *testing.T) {
	w := NoiseWeights([]uint64{10, 5, 0, 15}, 1.0)
	if w[0] != 10 || w[1] != 5 || w[2] != 0 || w[3] != 15 {
		t.Fatalf("NoiseWeights = %v", w)
	}
	if w := NoiseWeights([]uint64{16}, 0.75); math.Abs(w[0]-8) > 1e-12 {
		t.Fatalf("16^0.75 = %v, want 8", w[0])
	}
}

func TestSubsampleKeepProbs(t *testing.T) {
	d := vocab.NewDict(6)
	d.Add("item_0", vocab.KindItem, 0)
	d.Add("item_1", vocab.KindItem, 0)
	d.Add("leaf_category_7", vocab.KindSI, 0)
	d.Add("brand_3", vocab.KindSI, 0)
	d.Add("ut_F_21-25_p1", vocab.KindUserType, 0)
	d.Add("brand_9", vocab.KindSI, 0)
	p := KeepProbs(d, []uint64{10, 5, 15, 2, 8, 0}, 40, 1e-2, 0.5)
	for i, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("keep prob %d out of [0,1]: %v", i, v)
		}
	}
	// Hotter tokens keep less (same kind): item_0 (10) vs item_1 (5).
	if p[0] >= p[1] {
		t.Fatalf("hot item keep %v !< cold item keep %v", p[0], p[1])
	}
	// SIBoost halves non-item keep probs: brand_3 has f = 2/40, so
	// keep = (sqrt(t/f) + t/f) × 0.5.
	f := 2.0 / 40.0
	want := float32((math.Sqrt(1e-2/f) + 1e-2/f) * 0.5)
	if p[3] != want {
		t.Fatalf("SI boost keep = %v, want %v", p[3], want)
	}
	// An unseen token is always kept, SI or not.
	if p[5] != 1 {
		t.Fatalf("unseen token keep = %v, want 1", p[5])
	}
}
