package knn

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"sisg/internal/emb"
	"sisg/internal/race"
	"sisg/internal/rng"
	"sisg/internal/vecmath"
)

// prunedCorpus is one family of matrices the pruned scan has to stay exact
// on, each chosen to put rows where the bound is tight or ties are many.
type prunedCorpus struct {
	name string
	fill func(r *rng.RNG, m *emb.Matrix)
}

func gaussianRow(r *rng.RNG, row []float32, scale float64) {
	for i := range row {
		row[i] = float32(r.NormFloat64() * scale)
	}
}

var prunedCorpora = []prunedCorpus{
	{"gaussian", func(r *rng.RNG, m *emb.Matrix) {
		gaussianRow(r, m.Data(), 1)
	}},
	{"norms 1e-3..1e2", func(r *rng.RNG, m *emb.Matrix) {
		for i := 0; i < m.Rows(); i++ {
			gaussianRow(r, m.Row(int32(i)), math.Pow(10, r.Float64()*5-3))
		}
	}},
	// A third of the rows are fresh; the rest copy an earlier row exactly
	// or 1e-4 away: score intervals overlap by the hundred.
	{"duplicates", func(r *rng.RNG, m *emb.Matrix) {
		for i := 0; i < m.Rows(); i++ {
			row := m.Row(int32(i))
			if i < 3 || i%3 == 0 {
				gaussianRow(r, row, 1)
				continue
			}
			copy(row, m.Row(int32(r.Intn(i))))
			if i%3 == 2 {
				row[r.Intn(len(row))] += 1e-4
			}
		}
	}},
	// The served model's shape: half the rows exactly zero, so thousands of
	// scores tie at 0.
	{"half zero", func(r *rng.RNG, m *emb.Matrix) {
		for i := 0; i < m.Rows(); i++ {
			if r.Intn(2) == 0 {
				gaussianRow(r, m.Row(int32(i)), 1)
			}
		}
	}},
	// Rows outside the range the bound is proven for carry a NaN scale and
	// must reach the exact kernel regardless.
	{"out of range", func(r *rng.RNG, m *emb.Matrix) {
		for i := 0; i < m.Rows(); i++ {
			gaussianRow(r, m.Row(int32(i)), []float64{1, 1e-30, 1e15, 1}[r.Intn(4)])
		}
	}},
}

// The tentpole guarantee: the int8-first scan answers exactly as a serial
// float32 scan of every row followed by a full sort — ids and score bits —
// on every corpus above, for zero, tiny, huge and ordinary queries, K from
// 1 past the row count, skips that remove the very rows that held the
// pruning threshold, normalisation on and off, 1 to 7 shards.
func TestFlatPrunedBitIdenticalToFloatScan(t *testing.T) {
	queries := 0
	for ci, c := range prunedCorpora {
		for trial := 0; trial < 12; trial++ {
			r := rng.New(uint64(1000*ci + trial))
			rows := 300 + r.Intn(1500)
			dim := 1 + r.Intn(80)
			m := emb.NewMatrix(rows, dim)
			c.fill(r, m)
			indexes := make([]*Index, 7)
			for s := range indexes {
				indexes[s] = NewIndexSharded(m, 0, false, s+1)
			}
			for qi := 0; qi < 36; qi++ {
				q := make([]float32, dim)
				switch qi % 9 {
				case 0: // stays zero
				case 1:
					copy(q, m.Row(int32(r.Intn(rows)))) // a row of the matrix (possibly a zero one)
				case 2:
					gaussianRow(r, q, 1e-25) // below minMag: the float scan
				case 3:
					gaussianRow(r, q, 1e15) // above maxMag: the float scan
				default:
					gaussianRow(r, q, math.Pow(10, r.Float64()*4-2))
				}
				opts := Options{
					K:           []int{1 + r.Intn(50), 1 + r.Intn(50), rows, rows + 5}[r.Intn(4)],
					Normalize:   r.Intn(2) == 0,
					Parallelism: 1 + r.Intn(3),
				}
				want := referenceScan(m, rows, q, opts)
				if qi%3 == 0 {
					// Skip what an unskipped scan would have answered: the rows
					// whose lower bounds set the threshold are gone.
					top := make(map[int32]bool, len(want))
					for _, res := range want {
						top[res.ID] = true
					}
					opts.Skip = func(id int32) bool { return top[id] || id%11 == 3 }
					want = referenceScan(m, rows, q, opts)
				}
				ix := indexes[r.Intn(len(indexes))]
				tag := fmt.Sprintf("%s trial=%d q=%d rows=%d dim=%d shards=%d %+v", c.name, trial, qi, rows, dim, ix.Shards(), opts)
				sameResults(t, tag, queryT(ix, q, opts), want)
				queries++
			}
		}
	}
	if queries < 2000 {
		t.Fatalf("only %d queries checked", queries)
	}
}

// QueryBatch shares the tile routine with Query, one scan state per query:
// a batch mixing ordinary, zero and out-of-range queries answers each as
// the float reference does.
func TestFlatBatchMixedQueriesBitIdentical(t *testing.T) {
	r := rng.New(77)
	const rows, dim = 2000, 24
	m := emb.NewMatrix(rows, dim)
	prunedCorpora[3].fill(r, m)
	qs := make([][]float32, 10)
	for i := range qs {
		qs[i] = make([]float32, dim)
		gaussianRow(r, qs[i], []float64{1, 0, 1e-25, 1e15, 0.01}[i%5])
	}
	for _, shards := range []int{1, 3} {
		ix := NewIndexSharded(m, 0, false, shards)
		opts := Options{K: 15, Skip: func(id int32) bool { return id%7 == 0 }}
		got := queryBatchT(ix, qs, opts)
		for i, q := range qs {
			sameResults(t, fmt.Sprintf("shards=%d query %d", shards, i), got[i], referenceScan(m, rows, q, opts))
		}
	}
}

// The inequality every pruning decision rests on, where it is tight: rows
// whose every element sits just short of half a quantisation step off its
// code, all on the side that moves the score the same way. The float32
// score must stay inside [lo, up] = s·(t·D ∓ b), and the construction must
// really reach the edge (over 90 % of the half-width), so that a bound cut
// short fails here even though random data would never notice.
func TestScoreIntervalHoldsWhereTight(t *testing.T) {
	r := rng.New(31)
	tightest := 0.0
	for trial := 0; trial < 3000; trial++ {
		dim := 2 + r.Intn(120)
		step := float32(math.Ldexp(1, r.Intn(30)-20)) // the row's scale, a power of two
		side := float32(1 - 2*(trial%2))              // which edge of the interval to push at
		row := make([]float32, dim)
		q := make([]float32, dim)
		row[0] = 127 * step // pins the scale
		for i := 1; i < dim; i++ {
			sign := float32(1 - 2*r.Intn(2))
			row[i] = step * (float32(r.Intn(250)-125) + 0.4999*sign)
			q[i] = side * sign * float32(math.Abs(r.NormFloat64())+0.1)
		}
		mir := newQuantMirror(1, dim)
		mir.fill(0, row, make([]int8, dim))
		if mir.scales[0] != step {
			t.Fatalf("trial %d: scale %g, want %g", trial, mir.scales[0], step)
		}
		var st scan
		st.begin(q, trial%3 == 0)
		if !st.bounded {
			t.Fatalf("trial %d: an ordinary query is not bounded", trial)
		}
		var d [1]int32
		var score [1]float32
		codes, sums, scales := mir.tile(0, 1)
		vecmath.DotRowsI8MaskRef(d[:], make([]uint64, 1), codes, sums, &st.u, scales, st.t, st.b, 0)
		vecmath.DotRows(score[:], row, st.q)
		s, mid := float64(step), st.t*float64(d[0])
		lo, up := s*(mid-st.b), s*(mid+st.b)
		if got := float64(score[0]); got < lo || got > up {
			t.Fatalf("trial %d dim %d: score %g outside [%g, %g]", trial, dim, got, lo, up)
		}
		tightest = max(tightest, math.Abs(float64(score[0])-s*mid)/(s*st.b))
	}
	if tightest < 0.9 {
		t.Fatalf("the construction only reached %.2f of the bound: it no longer tests the edge", tightest)
	}
}

// pruneSpec is rule (1) of scan.prune as a loop over every row of a tile,
// which is what the scan ran before the kernel made the decision: the
// specification the kernel-side prune must match tile for tile. interval
// and drop are the bound and the compare, so that a broken variant of
// either can be shown to be told apart.
func pruneSpec(st *scan, dots []int32, scales []float32, base int32, k int, skip func(int32) bool,
	interval func(s float32, d int32, t, b float64) (lo, up float64), drop func(up, tau float64) bool) {
	tau := st.floor
	for i, d := range dots {
		lo, up := interval(scales[i], d, st.t, st.b)
		if drop(up, tau) {
			continue
		}
		id := base + int32(i)
		if skip != nil && skip(id) {
			continue
		}
		st.ids = append(st.ids, id)
		st.ups = append(st.ups, up)
		switch {
		case len(st.los) == k:
			if lo > tau {
				st.los[0] = lo
				heapFixRoot(st.los, lessFloat)
				tau = st.los[0]
			}
		case lo > tau:
			st.los = heapPush(st.los, lo, lessFloat)
			if len(st.los) == k {
				tau = st.los[0]
			}
		}
	}
	st.floor = tau
}

// sameState reports whether two scan states hold the same candidates, the
// same upper bounds (bit for bit, NaNs included) and the same floor.
func sameState(a, b *scan) bool {
	if !slices.Equal(a.ids, b.ids) || len(a.ups) != len(b.ups) || math.Float64bits(a.floor) != math.Float64bits(b.floor) {
		return false
	}
	for i := range a.ups {
		if math.Float64bits(a.ups[i]) != math.Float64bits(b.ups[i]) {
			return false
		}
	}
	return true
}

// The kernel decides which rows the prune loop sees, with τ as it stood
// when the tile began; the loop re-tests them against the current τ. On the
// corpora of TestFlatPrunedBitIdenticalToFloatScan that must leave, after
// every tile, exactly the candidates, ups and floor of rule (1) applied to
// every row in turn. Two broken specs — an ordered compare, which drops the
// NaN-scale rows, and a bound from t·(D−1) — must each be told apart from
// the scan somewhere, or this test could not see the kernel make either
// mistake.
func TestKernelPruneMatchesPerRowSpec(t *testing.T) {
	ruleOne := func(up, tau float64) bool { return up <= tau }
	broken := []struct {
		name     string
		interval func(s float32, d int32, t, b float64) (lo, up float64)
		drop     func(up, tau float64) bool
	}{
		{"ordered compare", vecmath.ScoreInterval, func(up, tau float64) bool { return !(up > tau) }},
		{"bound from t·(D−1)", func(s float32, d int32, t, b float64) (float64, float64) {
			return vecmath.ScoreInterval(s, d-1, t, b)
		}, ruleOne},
	}
	caught := make([]bool, len(broken))
	tiles := 0
	for ci, c := range prunedCorpora {
		for trial := 0; trial < 12; trial++ {
			r := rng.New(uint64(1000*ci + trial))
			rows := 300 + r.Intn(1500)
			dim := 1 + r.Intn(80)
			m := emb.NewMatrix(rows, dim)
			c.fill(r, m)
			mir := NewIndex(m, 0, false).quantized()
			for qi := 0; qi < 12; qi++ {
				q := make([]float32, dim)
				switch qi % 4 {
				case 0: // stays zero
				case 1:
					copy(q, m.Row(int32(r.Intn(rows))))
				default:
					gaussianRow(r, q, math.Pow(10, r.Float64()*4-2))
				}
				k := []int{1, 1 + r.Intn(50), rows}[r.Intn(3)]
				var skip func(int32) bool
				if qi%3 == 0 {
					skip = func(id int32) bool { return id%11 == 3 }
				}
				var got, want scan
				bad := make([]scan, len(broken))
				got.begin(q, qi%2 == 0)
				want.begin(q, qi%2 == 0)
				for i := range bad {
					bad[i].begin(q, qi%2 == 0)
				}
				if !got.bounded {
					continue
				}
				sc := new(scratch)
				for b := 0; b < rows; b += blockRows {
					n := min(blockRows, rows-b)
					codes, sums, scales := mir.tile(b, n)
					got.prune(sc.dots[:n], sc.mask[:(n+63)/64], codes, sums, scales, int32(b), k, skip)
					dots := make([]int32, n)
					vecmath.DotRowsI8MaskRef(dots, make([]uint64, (n+63)/64), codes, sums, &want.u, scales, 0, 0, 0)
					pruneSpec(&want, dots, scales, int32(b), k, skip, vecmath.ScoreInterval, ruleOne)
					if !sameState(&got, &want) {
						t.Fatalf("%s trial=%d q=%d k=%d tile at %d: the scan holds %d candidates (floor %g), the per-row spec %d (floor %g)",
							c.name, trial, qi, k, b, len(got.ids), got.floor, len(want.ids), want.floor)
					}
					for i, bk := range broken {
						pruneSpec(&bad[i], dots, scales, int32(b), k, skip, bk.interval, bk.drop)
						caught[i] = caught[i] || !sameState(&got, &bad[i])
					}
					tiles++
				}
			}
		}
	}
	if tiles < 2000 {
		t.Fatalf("only %d tiles compared", tiles)
	}
	for i, bk := range broken {
		if !caught[i] {
			t.Fatalf("a spec with the %s was never told apart from the scan", bk.name)
		}
	}
}

// survivorsOf runs the int8 pass of one query over the whole index on one
// worker and returns how many rows it leaves for the float32 kernel.
func survivorsOf(ix *Index, q []float32, opts Options) int {
	sc := new(scratch)
	sc.begin([][]float32{q}, opts)
	if err := ix.scanShard(context.Background(), sc, ix.quantized(), span{0, ix.rows}, opts); err != nil {
		panic(err)
	}
	return len(sc.qs[0].survivors())
}

// The tie rule, held to a number so that it cannot decay into a second full
// scan: on a corpus where half the rows are exactly zero, a query leaves
// under 5 % of the rows to re-rank — also when fewer than K rows score
// above zero, so that zero rows hold the threshold and every other zero
// row ties with it (with a strict rule all of them survive).
func TestFlatRerankStaysSmallOnTiedCorpus(t *testing.T) {
	const rows, dim, k = 20000, 32, 10
	r := rng.New(5)
	m := emb.NewMatrix(rows, dim)
	for i := 0; i < rows; i++ {
		if i%2 == 0 {
			continue
		}
		row := m.Row(int32(i))
		gaussianRow(r, row, 1)
		if i > 20 { // all but ten of the non-zero rows score below zero against a positive query
			for j, v := range row {
				row[j] = -float32(math.Abs(float64(v)))
			}
		}
	}
	ix := NewIndex(m, 0, false)
	for trial := 0; trial < 20; trial++ {
		q := make([]float32, dim)
		gaussianRow(r, q, 1)
		if trial%2 == 0 {
			for j, v := range q {
				q[j] = float32(math.Abs(float64(v)))
			}
		}
		opts := Options{K: k}
		if n := survivorsOf(ix, q, opts); n >= rows/20 {
			t.Fatalf("trial %d: %d of %d rows survive the int8 pass, want < 5%%", trial, n, rows)
		}
		sameResults(t, fmt.Sprintf("trial %d", trial), queryT(ix, q, opts), referenceScan(m, rows, q, opts))
	}
}

// One mirror per index, whoever builds it first, and the same one either
// way: BuildIVF's pass fills it when it runs first and reuses it otherwise,
// and a flat query on a bare index builds it on the spot.
func TestQuantizedMirrorIsSharedAndBuiltOnce(t *testing.T) {
	m := randomMatrix(1500, 12, 3)
	copy(m.Row(7), make([]float32, 12)) // a zero row
	m.Row(8)[0] = 1e-30                 // below the range once it is the row's largest element
	for i := 1; i < 12; i++ {
		m.Row(8)[i] = 0
	}
	m.Row(9)[3] = float32(math.NaN())

	first := NewIndex(m, 0, false)
	if first.QuantizedReady() {
		t.Fatal("mirror exists before anything asked for it")
	}
	first.BuildQuantized()
	mir := first.mirror.Load()
	first.BuildIVF(nil)
	if first.quantized() != mir {
		t.Fatal("BuildIVF after BuildQuantized made a second mirror")
	}

	second := NewIndex(m, 0, false)
	second.BuildIVF(nil)
	if !second.QuantizedReady() {
		t.Fatal("BuildIVF did not leave its mirror on the index")
	}
	third := NewIndex(m, 0, false)
	queryT(third, m.Row(0), Options{K: 3})
	if !third.QuantizedReady() {
		t.Fatal("a flat query left no mirror behind")
	}
	for _, other := range []*Index{second, third} {
		o := other.quantized()
		if !slices.Equal(o.codes, mir.codes) || !slices.Equal(o.sums, mir.sums) {
			t.Fatal("mirrors built by different passes differ in codes")
		}
		for i := range mir.scales {
			if math.Float32bits(o.scales[i]) != math.Float32bits(mir.scales[i]) {
				t.Fatalf("mirrors built by different passes differ in the scale of row %d", i)
			}
		}
	}
	if mir.scales[7] != 0 {
		t.Fatalf("zero row has scale %g, want 0", mir.scales[7])
	}
	for _, row := range []int{8, 9} {
		if s := mir.scales[row]; s == s {
			t.Fatalf("row %d is outside what the bound covers but has scale %g, want NaN", row, s)
		}
	}
}

// The scan's scratch is pooled: a flat query allocates its result and a
// constant handful of small objects, whatever the number of rows.
func TestFlatQueryAllocationsAreConstant(t *testing.T) {
	if race.Enabled {
		t.Skip("under the race detector sync.Pool drops puts at random, so the scratch is reallocated")
	}
	allocs := func(rows int) float64 {
		m := randomMatrix(rows, 64, 9)
		ix := NewIndex(m, 0, false)
		q := m.Row(1)
		opts := Options{K: 10, Parallelism: 1}
		queryT(ix, q, opts) // builds the mirror, sizes the pooled scratch
		return testing.AllocsPerRun(20, func() { queryT(ix, q, opts) })
	}
	small, large := allocs(2000), allocs(50000)
	if large > 8 || large > small+1 {
		t.Fatalf("a flat query allocates %.0f objects on 50000 rows and %.0f on 2000, want a constant handful", large, small)
	}
}

// tiedMatrix is a corpus the int8 pass cannot thin: every row copies one of
// four base rows, exactly or with one element moved by 1e-5, so rows of one
// base tie or nearly tie and each base's rows all survive together — the
// re-rank sees thousands of candidates per query.
func tiedMatrix(rows, dim int, seed uint64) *emb.Matrix {
	r := rng.New(seed)
	m := emb.NewMatrix(rows, dim)
	base := emb.NewMatrix(4, dim)
	gaussianRow(r, base.Data(), 1)
	for i := 0; i < rows; i++ {
		row := m.Row(int32(i))
		copy(row, base.Row(int32(r.Intn(4))))
		if r.Intn(2) == 0 {
			row[r.Intn(dim)] += 1e-5
		}
	}
	return m
}

// Where survivors are many, the re-rank's chunks and their fold stay exact:
// flat answers at 1 and 2 workers and IVF answers probing every list equal
// the DotRowsRef top-K under (score desc, id asc), ids and score bits, with
// and without a skip, on queries that leave thousands of rows to re-rank.
func TestManySurvivorsBitIdenticalToReference(t *testing.T) {
	const rows, dim = 12000, 24
	m := tiedMatrix(rows, dim, 8)
	ix := NewIndexSharded(m, 0, false, 4)
	r := rng.New(9)
	skip := func(id int32) bool { return id%7 == 3 }
	for trial := 0; trial < 6; trial++ {
		q := make([]float32, dim)
		gaussianRow(r, q, 1)
		for _, k := range []int{1, 10, 300} {
			opts := Options{K: k}
			if n := survivorsOf(ix, q, opts); n < 2000 {
				t.Fatalf("trial %d k=%d: %d rows survive the int8 pass, want thousands", trial, k, n)
			}
			for _, sk := range []func(int32) bool{nil, skip} {
				want := referenceScan(m, rows, q, Options{K: k, Skip: sk})
				for _, par := range []int{1, 2} {
					tag := fmt.Sprintf("trial %d k=%d skip=%v par=%d", trial, k, sk != nil, par)
					sameResults(t, tag+" flat", queryT(ix, q, Options{K: k, Skip: sk, Parallelism: par}), want)
					sameResults(t, tag+" ivf", queryT(ix, q, Options{K: k, Skip: sk, Parallelism: par,
						Index: IndexIVF, NProbe: ix.IVFClusters()}), want)
				}
			}
		}
	}
}
