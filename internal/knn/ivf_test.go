package knn

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"sisg/internal/emb"
	"sisg/internal/rng"
	"sisg/internal/vecmath"
)

// clusteredMatrix draws rows from a mixture of `centers` Gaussians — the
// regime IVF is built for (uniform random data has no cluster structure
// and is adversarial for any partition-based ANN index).
func clusteredMatrix(rows, dim, centers int, seed uint64) *emb.Matrix {
	r := rng.New(seed)
	mu := make([][]float32, centers)
	for c := range mu {
		mu[c] = make([]float32, dim)
		for d := range mu[c] {
			mu[c][d] = float32(r.NormFloat64()) * 4
		}
	}
	m := emb.NewMatrix(rows, dim)
	for i := 0; i < rows; i++ {
		row := m.Row(int32(i))
		center := mu[r.Intn(centers)]
		for d := range row {
			row[d] = center[d] + float32(r.NormFloat64())*0.3
		}
	}
	return m
}

// The satellite-1 property: IVF with NProbe >= the cluster count probes
// every non-empty posting list, so it enumerates exactly the rows the
// flat scan does — and because selection is canonical and the re-rank
// uses the same kernel schedule, the output is bit-identical to the flat
// scan (and therefore to the serial reference).
func TestIVFExhaustiveBitIdenticalToFlat(t *testing.T) {
	f := func(seed uint64, rowsRaw uint16, kRaw, dimRaw uint8, normalize, withSkip bool) bool {
		rows := 1 + int(rowsRaw)%1200
		dim := 2 + int(dimRaw)%24
		k := 1 + int(kRaw)%40
		m := randomMatrix(rows, dim, seed)
		q := randomMatrix(1, dim, seed^0x5eed).Row(0)
		ix := NewIndex(m, rows, false)
		var skip func(int32) bool
		if withSkip {
			skip = func(id int32) bool { return id%5 == int32(seed%5) }
		}
		flat := queryT(ix, q, Options{K: k, Normalize: normalize, Skip: skip})
		ivf := queryT(ix, q, Options{
			K: k, Normalize: normalize, Skip: skip,
			Index: IndexIVF, NProbe: rows + 1, // >= nlist: exhaustive
		})
		sameResults(t, fmt.Sprintf("seed=%d rows=%d dim=%d k=%d", seed, rows, dim, k), ivf, flat)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Quantized exhaustive probe is also bit-identical whenever the shortlist
// budget covers every candidate (the int8 pre-screen only trims when it
// must): quantization decides membership, never served scores.
func TestIVFQuantizedExhaustiveSmallIsExact(t *testing.T) {
	rows, dim, k := 60, 12, 5 // shortlist keep = rerankMin = 64 >= rows
	m := randomMatrix(rows, dim, 11)
	ix := NewIndex(m, rows, false)
	q := randomMatrix(1, dim, 13).Row(0)
	flat := queryT(ix, q, Options{K: k})
	ivf := queryT(ix, q, Options{K: k, Index: IndexIVF, NProbe: rows, Quantized: true})
	sameResults(t, "quantized exhaustive", ivf, flat)
}

// Recall on clustered data, quantized and not, against the flat scan as
// ground truth. At the default NProbe a loose floor catches a broken probe
// order or a shortlist that drops the true neighbors wholesale; sweeping
// NProbe, some width short of every list must reach the serving floor of
// 0.95 — the accuracy half of the IVF trade-off. (The speed half is read
// from knn.ivf_query_us against knn.flat_query_us in traced benchmark
// runs, not asserted on a wall clock here.)
func TestIVFRecallOnClusteredData(t *testing.T) {
	const rows, dim, k, nq = 4000, 16, 10, 40
	m := clusteredMatrix(rows, dim, 25, 42)
	ix := NewIndex(m, rows, false)
	r := rng.New(99)
	queries := make([][]float32, nq)
	truth := make([][]Result, nq)
	for i := range queries {
		q := make([]float32, dim)
		src := m.Row(int32(r.Intn(rows)))
		for d := range q {
			q[d] = src[d] + float32(r.NormFloat64())*0.05
		}
		queries[i], truth[i] = q, queryT(ix, q, Options{K: k})
	}
	recall := func(nprobe int, quantized bool) float64 {
		hits, want := 0, 0
		for i, q := range queries {
			got := queryT(ix, q, Options{K: k, Index: IndexIVF, NProbe: nprobe, Quantized: quantized})
			want += len(truth[i])
			hits += overlap(truth[i], got)
		}
		return float64(hits) / float64(want)
	}
	for _, quantized := range []bool{false, true} {
		got := recall(0, quantized)
		t.Logf("quantized=%v default nprobe: recall@%d = %.3f", quantized, k, got)
		if got < 0.9 {
			t.Errorf("quantized=%v recall@%d = %.3f at the default nprobe, want >= 0.9", quantized, k, got)
		}
		best, nlist := 0.0, ix.IVFClusters()
		for nprobe := 1; nprobe < nlist && best < 0.95; nprobe *= 2 {
			best = recall(nprobe, quantized)
			t.Logf("quantized=%v nprobe=%d/%d: recall@%d = %.3f", quantized, nprobe, nlist, k, best)
		}
		if best < 0.95 {
			t.Errorf("quantized=%v: no nprobe below the %d lists reaches recall@%d >= 0.95", quantized, nlist, k)
		}
	}
}

// Batch IVF must agree with per-query IVF at every parallelism.
func TestIVFBatchMatchesSingle(t *testing.T) {
	const rows, dim, k, nq = 700, 10, 7, 23
	m := clusteredMatrix(rows, dim, 12, 7)
	ix := NewIndex(m, rows, false)
	qs := make([][]float32, nq)
	for i := range qs {
		qs[i] = randomMatrix(1, dim, uint64(100+i)).Row(0)
	}
	opts := Options{K: k, Index: IndexIVF, NProbe: 3, Quantized: true}
	single := make([][]Result, nq)
	for i, q := range qs {
		single[i] = queryT(ix, q, opts)
	}
	for _, par := range []int{1, 4} {
		opts.Parallelism = par
		batch := queryBatchT(ix, qs, opts)
		for i := range batch {
			sameResults(t, fmt.Sprintf("par=%d query %d", par, i), batch[i], single[i])
		}
	}
}

// The IVF layer is built lazily behind a sync.Once; hammer the first
// build from many goroutines (run under -race in CI) and check everyone
// sees the same answer.
func TestIVFConcurrentFirstBuild(t *testing.T) {
	const rows, dim, k = 900, 8, 6
	m := clusteredMatrix(rows, dim, 9, 3)
	ix := NewIndex(m, rows, false)
	q := randomMatrix(1, dim, 77).Row(0)
	opts := Options{K: k, Index: IndexIVF, NProbe: rows} // exhaustive: answer is known
	want := queryT(NewIndex(m, rows, false), q, Options{K: k})
	var wg sync.WaitGroup
	got := make([][]Result, 16)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = queryT(ix, q, opts)
		}(g)
	}
	wg.Wait()
	for g := range got {
		sameResults(t, fmt.Sprintf("goroutine %d", g), got[g], want)
	}
}

func TestIVFClustersAccessor(t *testing.T) {
	m := randomMatrix(400, 6, 5)
	ix := NewIndex(m, 400, false)
	n := ix.IVFClusters()
	if n != 20 { // round(sqrt(400))
		t.Fatalf("IVFClusters() = %d, want 20", n)
	}
	empty := NewIndex(emb.NewMatrix(0, 6), 0, false)
	if got := empty.IVFClusters(); got != 0 {
		t.Fatalf("empty IVFClusters() = %d, want 0", got)
	}
}

// grownMatrix is base with every row nudged (one publish interval of SGD)
// and extra new rows appended (vocabulary growth) — the next generation of
// a streamed item matrix.
func grownMatrix(base *emb.Matrix, extra int, seed uint64) *emb.Matrix {
	r := rng.New(seed)
	m := emb.NewMatrix(base.Rows()+extra, base.Dim)
	for i := 0; i < m.Rows(); i++ {
		src := base.Row(int32(i % base.Rows()))
		row := m.Row(int32(i))
		for d := range row {
			row[d] = src[d] + float32(r.NormFloat64())*0.05
		}
	}
	return m
}

// A publisher builds the layer before readers see the index, seeded with
// the previous generation's centroids. The seeded build must be a pure
// function of (matrix, seed), keep the exhaustive-probe identity with the
// flat scan, keep recall, and accept a seed of any cluster count —
// including more clusters than the new index has rows.
func TestBuildIVFWarmStart(t *testing.T) {
	const rows, dim, k = 2000, 16, 10
	gen1 := clusteredMatrix(rows, dim, 25, 42)
	ix1 := NewIndex(gen1, rows, false)
	if ix1.IVFReady() || ix1.IVFCentroids() != nil {
		t.Fatal("IVF layer reported built before any build")
	}
	ix1.BuildIVF(nil)
	if !ix1.IVFReady() {
		t.Fatal("IVFReady false after BuildIVF")
	}
	seed := ix1.IVFCentroids()
	if len(seed) != ix1.IVFClusters()*dim {
		t.Fatalf("IVFCentroids holds %d values, want %d", len(seed), ix1.IVFClusters()*dim)
	}
	// BuildIVF(nil) is the lazy build: same layer as a first IVF query's.
	lazy := NewIndex(gen1, rows, false)
	q1 := gen1.Row(7)
	sameResults(t, "cold BuildIVF vs lazy", queryT(ix1, q1, Options{K: k, Index: IndexIVF}), queryT(lazy, q1, Options{K: k, Index: IndexIVF}))
	if !lazy.IVFReady() {
		t.Fatal("IVFReady false after an IVF query")
	}
	built := lazy.IVFCentroids()
	lazy.BuildIVF(seed)
	if &lazy.IVFCentroids()[0] != &built[0] {
		t.Fatal("BuildIVF rebuilt a layer that already existed")
	}

	gen2 := grownMatrix(gen1, 300, 9) // nlist 45 -> 48
	a, b := NewIndex(gen2, 0, false), NewIndex(gen2, 0, false)
	a.BuildIVF(seed)
	b.BuildIVF(seed)
	if a.IVFClusters() == ix1.IVFClusters() {
		t.Fatal("test matrix did not change the cluster count")
	}
	ca, cb := a.IVFCentroids(), b.IVFCentroids()
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("seeded build is not deterministic: centroid value %d differs", i)
		}
	}
	cold := NewIndex(gen2, 0, false)
	hits, want := 0, 0
	for i := 0; i < 60; i++ {
		q := gen2.Row(int32(i * 37))
		flat := queryT(a, q, Options{K: k})
		warm := queryT(a, q, Options{K: k, Index: IndexIVF})
		sameResults(t, "seeded build, twice", queryT(b, q, Options{K: k, Index: IndexIVF}), warm)
		sameResults(t, "seeded build, exhaustive", queryT(a, q, Options{K: k, Index: IndexIVF, NProbe: a.IVFClusters()}), flat)
		sameResults(t, "flat is untouched by the layer", queryT(cold, q, Options{K: k}), flat)
		want += len(flat)
		hits += overlap(flat, warm)
	}
	if recall := float64(hits) / float64(want); recall < 0.9 {
		t.Errorf("seeded build recall@%d = %.3f, want >= 0.9", k, recall)
	}

	// A seed that is not whole centroids is ignored: a cold build.
	odd := NewIndex(gen2, 0, false)
	odd.BuildIVF(seed[:len(seed)-1])
	cold.BuildIVF(nil)
	cc, oc := cold.IVFCentroids(), odd.IVFCentroids()
	for i := range cc {
		if cc[i] != oc[i] {
			t.Fatal("malformed seed was not ignored")
		}
	}

	// Shrunk and degenerate generations take any seed without panicking.
	for _, n := range []int{0, 1, 2, 30} {
		small := NewIndex(gen2, n, false)
		if n == 0 {
			small = NewIndex(emb.NewMatrix(0, dim), 0, false)
		}
		small.BuildIVF(seed)
		if !small.IVFReady() {
			t.Fatalf("rows=%d: IVFReady false after BuildIVF", n)
		}
		got := queryT(small, q1, Options{K: k, Index: IndexIVF, NProbe: n + 1})
		sameResults(t, fmt.Sprintf("rows=%d exhaustive", n), got, queryT(small, q1, Options{K: k}))
	}
}

// Satellite 3 (engine side): Options.Validate classifies bad options; the
// server test suite checks the same cases surface as bad_request JSON.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		wantErr string
	}{
		{"flat default ok", Options{K: 5}, ""},
		{"flat explicit ok", Options{K: 5, Index: IndexFlat}, ""},
		{"ivf ok", Options{K: 5, Index: IndexIVF}, ""},
		{"ivf nprobe ok", Options{K: 5, Index: IndexIVF, NProbe: 8}, ""},
		{"ivf quantized ok", Options{K: 5, Index: IndexIVF, Quantized: true}, ""},
		{"zero k", Options{K: 0}, "knn: k must be positive, got 0"},
		{"negative k", Options{K: -3, Index: IndexIVF}, "knn: k must be positive, got -3"},
		{"negative nprobe", Options{K: 5, Index: IndexIVF, NProbe: -1}, "knn: nprobe must be >= 0 (0 means default), got -1"},
		{"nprobe without ivf", Options{K: 5, NProbe: 4}, "knn: nprobe is only meaningful with index=ivf"},
		{"quantized without ivf", Options{K: 5, Index: IndexFlat, Quantized: true}, "knn: quantized is only meaningful with index=ivf"},
		{"unknown index", Options{K: 5, Index: "hnsw"}, `knn: unknown index "hnsw" (want "flat" or "ivf")`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("Validate() = %v, want nil", err)
			case tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr):
				t.Fatalf("Validate() = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// warmSpec is the executable specification of a warm build, serially: the
// effective seed (warm as far as it reaches, then evenly spaced rows),
// each row's argmax of c·x − ||c||²/2 over it (lowest id on ties), and the
// ascending-row float32 mean of each resulting cell.
func warmSpec(m *emb.Matrix, warm []float32) (lists [][]int32, means []float32) {
	rows, dim := m.Rows(), m.Dim
	nlist := ivfClusters(rows)
	seed := make([]float32, nlist*dim)
	n := copy(seed, warm) / dim
	for c := n; c < nlist; c++ {
		copy(seed[c*dim:(c+1)*dim], m.Row(int32(c*rows/nlist)))
	}
	half := make([]float32, nlist)
	for c := range half {
		half[c] = vecmath.Dot(seed[c*dim:(c+1)*dim], seed[c*dim:(c+1)*dim]) / 2
	}
	lists = make([][]int32, nlist)
	scores := make([]float32, nlist)
	for r := 0; r < rows; r++ {
		vecmath.DotRowsRef(scores, seed, m.Row(int32(r)))
		best := 0
		for c := 1; c < nlist; c++ {
			if scores[c]-half[c] > scores[best]-half[best] {
				best = c
			}
		}
		lists[best] = append(lists[best], int32(r))
	}
	means = make([]float32, nlist*dim)
	for c, l := range lists {
		mean := means[c*dim : (c+1)*dim]
		for _, r := range l {
			for d, x := range m.Row(r) {
				mean[d] += x
			}
		}
		inv := 1 / float32(len(l))
		for d := range mean {
			mean[d] *= inv
		}
	}
	return lists, means
}

// The one-pass warm build, held to its specification at every GOMAXPROCS:
// posting lists are the seed's Voronoi cells, centroids the means of those
// cells, codes and scales QuantizeRow of each row — whether the cluster
// count grew, shrank or stayed, and whatever the block split.
func TestWarmBuildIsAssignMeanQuantize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	gen1 := clusteredMatrix(1500, 12, 20, 3)
	first := NewIndex(gen1, 0, false)
	first.BuildIVF(nil)
	seed := first.IVFCentroids()
	for _, procs := range []int{1, 2, 4, 7} {
		runtime.GOMAXPROCS(procs)
		for _, extra := range []int{0, 300, 1101} {
			for _, keep := range []int{0, 900} { // 0: all rows; 900: fewer clusters than the seed
				m := grownMatrix(gen1, extra, uint64(extra+1))
				ix := NewIndex(m, keep, false)
				ix.BuildIVF(seed)
				iv := ix.ivf.Load()
				tag := fmt.Sprintf("procs=%d rows=%d", procs, ix.rows)
				view := emb.NewMatrix(ix.rows, m.Dim)
				copy(view.Data(), m.Data())
				lists, means := warmSpec(view, seed)
				if len(iv.lists) != len(lists) {
					t.Fatalf("%s: %d lists, want %d", tag, len(iv.lists), len(lists))
				}
				for c := range lists {
					if len(lists[c]) == 0 {
						t.Fatalf("%s: the seed left cluster %d empty: the build went cold and the test checks nothing", tag, c)
					}
					if !slices.Equal(iv.lists[c], lists[c]) {
						t.Fatalf("%s: list %d is not the seed's cell", tag, c)
					}
				}
				for i := range means {
					if math.Float32bits(iv.centroids[i]) != math.Float32bits(means[i]) {
						t.Fatalf("%s: centroid value %d = %v, want the cell mean %v", tag, i, iv.centroids[i], means[i])
					}
				}
				code := make([]int8, m.Dim)
				for r := 0; r < ix.rows; r++ {
					scale := vecmath.QuantizeRow(code, view.Row(int32(r)))
					if scale != iv.scales[r] || !slices.Equal(code, iv.codes[r*m.Dim:(r+1)*m.Dim]) {
						t.Fatalf("%s: row %d code differs from QuantizeRow", tag, r)
					}
				}
			}
		}
	}
}

// driftedMatrix is the next generation of a trained item matrix: every row
// takes a random step and grows a little in norm (what SGD does to rows it
// keeps touching — the drift that once starved warm-started clusters), and
// a few new rows appear.
func driftedMatrix(base *emb.Matrix, extra int, seed uint64) *emb.Matrix {
	m := grownMatrix(base, extra, seed)
	vecmath.Scale(1.01, m.Data())
	return m
}

// One Lloyd step per generation must not be a ratchet: over a 40-generation
// chain of drifting, growing matrices, each layer seeded with the previous
// one's centroids, recall@10 at the default probe width stays within 0.03
// of a cold build of the same matrix — at every generation, not on
// average.
func TestWarmChainKeepsColdRecall(t *testing.T) {
	const k, queries = 10, 100
	// 150 centres blurred until they overlap: IVF recall near 0.9, where
	// a worse partition shows.
	m := clusteredMatrix(3000, 16, 150, 11)
	r := rng.New(5)
	for i := range m.Data() {
		m.Data()[i] += float32(r.NormFloat64()) * 3
	}
	var seed []float32
	worst := 0.0
	for g := 0; g < 40; g++ {
		warm, cold := NewIndex(m, 0, false), NewIndex(m, 0, false)
		warm.BuildIVF(seed)
		cold.BuildIVF(nil)
		seed = warm.IVFCentroids()
		var hitsW, hitsC, want int
		for i := 0; i < queries; i++ {
			q := m.Row(int32(i * 29 % m.Rows()))
			flat := queryT(warm, q, Options{K: k})
			want += len(flat)
			hitsW += overlap(flat, queryT(warm, q, Options{K: k, Index: IndexIVF}))
			hitsC += overlap(flat, queryT(cold, q, Options{K: k, Index: IndexIVF}))
		}
		rw, rc := float64(hitsW)/float64(want), float64(hitsC)/float64(want)
		if rc-rw > worst {
			worst = rc - rw
		}
		if rw < rc-0.03 {
			t.Errorf("generation %d (%d rows): warm recall@%d %.3f, cold %.3f", g, m.Rows(), k, rw, rc)
		}
		m = driftedMatrix(m, 40, uint64(100+g))
	}
	t.Logf("largest cold-minus-warm recall gap over the chain: %.3f", worst)
}
