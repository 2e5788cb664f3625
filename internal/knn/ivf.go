// The IVF (inverted-file) layer: the sub-linear strategy behind
// Options.Index = "ivf". Rows are partitioned by a deterministic k-means
// over the indexed matrix (nlist ≈ sqrt(rows) coarse centroids); a query
// scores all centroids, probes the NProbe most promising non-empty
// clusters, and the union of their posting lists is the candidate set.
// Candidates are optionally pre-screened with int8 quantized dot products
// (Options.Quantized, over the index's int8 mirror — the one the flat scan
// reads, see quant.go) and always re-ranked with the exact float32 kernel
// under the engine's canonical total order — approximation decides which
// rows are *considered*, never what score a served row carries.
//
// Determinism: the build is a pure function of the matrix and, for a
// warm start (BuildIVF), the centroids it was handed — centroids seed from
// evenly spaced rows (no RNG), assignment sends ties to the lowest centroid
// id, centroid means add rows in ascending order, and posting lists are
// ascending row ids — and the query path selects under the total order, so
// IVF results are reproducible across runs, platforms, and Parallelism
// settings. The degenerate case NProbe >= nlist enumerates every row and
// is bit-identical to the flat scan (locked down by
// TestIVFExhaustiveBitIdenticalToFlat).
package knn

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sisg/internal/vecmath"
)

const (
	// kmeansIters bounds the Lloyd iterations of a cold build of the
	// coarse quantizer. Convergence beyond ~10 iterations moves recall by
	// noise only. A warm build runs none: see buildIVF.
	kmeansIters = 10
	// rerankFactor and rerankMin size the exact-re-rank shortlist the
	// quantized pre-screen keeps: max(rerankFactor*K, rerankMin)
	// candidates survive to float32 scoring.
	rerankFactor = 4
	rerankMin    = 64
)

// ivfIndex is the immutable IVF layer of an Index: coarse centroids and one
// ascending posting list per centroid. Shortlist scoring reads the index's
// int8 mirror, which the layer refers to and does not own.
type ivfIndex struct {
	nlist     int
	dim       int
	centroids []float32 // nlist × dim, row-major
	lists     [][]int32 // per centroid, ascending row ids (may be empty)
	nonEmpty  int       // number of non-empty posting lists
	*quantMirror
}

// ivfLayer returns the IVF layer, building it cold on first use unless
// BuildIVF already ran. The build is deterministic and guarded by a
// sync.Once, so concurrent first queries are safe and agree.
func (ix *Index) ivfLayer() *ivfIndex {
	ix.BuildIVF(nil)
	return ix.ivf.Load()
}

// BuildIVF builds the IVF layer now, on the caller's goroutine, instead of
// under the first IVF query — what a publisher calls before handing the
// index to readers, so no request ever waits behind a k-means. warm, when
// it holds the centroids of an index over an earlier state of the same
// rows (IVFCentroids of the previous generation, same Dim), replaces the
// cold build's kmeansIters Lloyd iterations with a single pass over the
// rows: every row is assigned once, against warm, and the means of the
// resulting lists become this layer's centroids — one Lloyd step per
// generation, carried from generation to generation. The cluster count may
// have moved with the row count: surplus seed centroids are dropped and
// missing ones are seeded from rows as in a cold build. A warm that is
// empty or not whole centroids is ignored, and a seeded build that leaves
// a cluster without rows is discarded for a cold one. The result is a pure
// function of the matrix and warm. A no-op once the layer exists.
func (ix *Index) BuildIVF(warm []float32) {
	ix.ivfOnce.Do(func() { ix.ivf.Store(buildIVF(ix, warm)) })
}

// IVFReady reports whether the IVF layer has been built, i.e. whether an
// IVF query on this index would run without building anything.
func (ix *Index) IVFReady() bool { return ix.ivf.Load() != nil }

// IVFCentroids returns the built layer's coarse centroids (IVFClusters ×
// Dim, row-major), or nil before the layer exists. The slice is the
// layer's own: read-only, and valid as the warm seed of the next
// generation's BuildIVF.
func (ix *Index) IVFCentroids() []float32 {
	if iv := ix.ivf.Load(); iv != nil {
		return iv.centroids
	}
	return nil
}

// IVFClusters returns the coarse-centroid count of the index's IVF layer
// (building the layer if needed) — the NProbe value at which IVF
// retrieval degenerates to an exhaustive, bit-identical-to-flat scan.
func (ix *Index) IVFClusters() int {
	if ix.rows == 0 {
		return 0
	}
	return ix.ivfLayer().nlist
}

// ivfClusters is the coarse-centroid count for an index of rows rows:
// about sqrt(rows), at least 1 and at most rows.
func ivfClusters(rows int) int {
	nlist := int(math.Sqrt(float64(rows)) + 0.5)
	if nlist < 1 {
		nlist = 1
	}
	if nlist > rows {
		nlist = rows
	}
	return nlist
}

// defaultNProbe is the probe width used when Options.NProbe <= 0:
// about sqrt(nlist), the classical accuracy/speed sweet spot.
func defaultNProbe(nlist int) int {
	np := int(math.Sqrt(float64(nlist)) + 0.5)
	if np < 1 {
		np = 1
	}
	return np
}

// buildIVF clusters the indexed rows, cold or seeded with warm (see
// BuildIVF), and quantizes them into the index's int8 mirror unless that
// exists already.
//
// Cold, it runs kmeansIters Lloyd iterations from evenly spaced rows and
// one last assignment against the final centroids. Warm, that last
// assignment — against the seed — is the only pass over the rows: the
// posting lists are the seed's Voronoi cells, and their means are both
// this layer's centroids and the next generation's seed. A probe ranks
// lists by means one step ahead of the cells they describe, which costs no
// correctness (every row is in exactly one list, so an exhaustive probe is
// the flat scan) and, on rows that moved by one publish interval of SGD,
// no measurable recall.
//
// Every pass over the rows that scores them against the centroids is
// parallel over row blocks and per-row pure, so parallelism cannot change
// a result; the last one also quantizes each row it assigns, while the row
// is in cache, so that a publisher who builds the layer pays no separate
// pass for the mirror. Sums are serial, in ascending row order.
func buildIVF(ix *Index, warm []float32) *ivfIndex {
	rows, dim := ix.rows, ix.mat.Dim
	data := ix.mat.Data()
	nlist := ivfClusters(rows)
	iv := &ivfIndex{
		nlist: nlist, dim: dim,
		centroids: make([]float32, nlist*dim),
		lists:     make([][]int32, nlist),
	}

	// Seed centroids from the warm start as far as it reaches, and the
	// rest (all of them, cold) from evenly spaced rows: deterministic, and
	// spread across the id range (embedding rows carry no id-order
	// structure worth stratifying on, but every seed is a real data point).
	seeded := 0
	if dim > 0 && len(warm)%dim == 0 {
		seeded = min(len(warm)/dim, nlist)
		copy(iv.centroids, warm[:seeded*dim])
	}
	for c := seeded; c < nlist; c++ {
		src := (c * rows) / nlist
		copy(iv.centroids[c*dim:(c+1)*dim], data[src*dim:(src+1)*dim])
	}

	// A cold build takes every CPU: it happens once and somebody is waiting
	// for it. A warm build happens at every publish, in the process that
	// serves reads, and leaves one CPU out of its pool: with all of them
	// taken no idle P polls the network, and a request that arrives
	// mid-pass waits for the scheduler's 10 ms preemption tick (measured on
	// 2 CPUs beside 300 reads/s: p99 12 → 22 ms with both taken, 6 ms with
	// one left, at the same ingest rate).
	workers := runtime.GOMAXPROCS(0)
	if seeded > 0 {
		workers--
	}

	assign := make([]int32, rows)
	if seeded == 0 {
		for iter := 0; iter < kmeansIters; iter++ {
			iv.assignRows(assign, data, rows, workers, nil)
			iv.recentre(assign, data)
		}
	}
	filled := false
	ix.mirrorOnce.Do(func() {
		m := newQuantMirror(rows, dim)
		iv.assignRows(assign, data, rows, workers, m)
		ix.mirror.Store(m)
		filled = true
	})
	if !filled {
		iv.assignRows(assign, data, rows, workers, nil)
	}
	iv.quantMirror = ix.mirror.Load()
	iv.carveLists(assign)
	if seeded > 0 {
		if iv.nonEmpty < nlist {
			// A cluster died under the seed: it was stale (rows whose norms
			// grew since the seed was cut all prefer its largest centroids),
			// and a dead centroid never revives, so the imbalance would
			// ratchet from generation to generation and waste probes. Start
			// over cold.
			return buildIVF(ix, nil)
		}
		iv.recentre(assign, data)
	}
	return iv
}

// carveLists turns a row→centroid assignment into the posting lists, all
// carved from one backing array: ascending row ids by construction.
func (iv *ivfIndex) carveLists(assign []int32) {
	counts := make([]int, iv.nlist)
	for _, c := range assign {
		counts[c]++
	}
	backing := make([]int32, len(assign))
	iv.nonEmpty = 0
	for c, n := range counts {
		iv.lists[c] = backing[:0:n]
		backing = backing[n:]
		if n > 0 {
			iv.nonEmpty++
		}
	}
	for r, c := range assign {
		iv.lists[c] = append(iv.lists[c], int32(r))
	}
}

// recentre moves every centroid to the float32 mean of the rows assigned
// to it: the rows added in ascending order, then scaled by 1/count. A
// centroid with no rows stays where it is.
func (iv *ivfIndex) recentre(assign []int32, data []float32) {
	dim := iv.dim
	sums := make([]float32, iv.nlist*dim)
	counts := make([]int32, iv.nlist)
	for r, c := range assign {
		vecmath.Add(data[r*dim:(r+1)*dim], sums[int(c)*dim:(int(c)+1)*dim])
		counts[c]++
	}
	for c, n := range counts {
		if n == 0 {
			continue
		}
		cen := iv.centroids[c*dim : (c+1)*dim]
		copy(cen, sums[c*dim:(c+1)*dim])
		vecmath.Scale(1/float32(n), cen)
	}
}

// assignRows computes, for every row, the nearest centroid by Euclidean
// distance (argmax of c·x − ||c||²/2; ties to the lowest centroid id),
// fanning row blocks across at most workers goroutines (at least one). With
// a mirror to fill it also quantizes each row into it while the row is in
// cache.
func (iv *ivfIndex) assignRows(assign []int32, data []float32, rows, workers int, fill *quantMirror) {
	dim := iv.dim
	halfNorm := make([]float32, iv.nlist)
	for c := 0; c < iv.nlist; c++ {
		cen := iv.centroids[c*dim : (c+1)*dim]
		halfNorm[c] = vecmath.Dot(cen, cen) / 2
	}
	eachRowBlock(rows, workers, func(lo, hi int) {
		scores := make([]float32, iv.nlist)
		for r := lo; r < hi; r++ {
			row := data[r*dim : (r+1)*dim]
			vecmath.DotRows(scores, iv.centroids, row)
			best, bestScore := int32(0), scores[0]-halfNorm[0]
			for c := 1; c < iv.nlist; c++ {
				if s := scores[c] - halfNorm[c]; s > bestScore {
					best, bestScore = int32(c), s
				}
			}
			assign[r] = best
			if fill != nil {
				fill.fill(r, row)
			}
		}
	})
}

// queryIVF answers one query through the IVF layer. The context is checked
// once per candidate tile inside the shortlist and re-rank stages.
func (ix *Index) queryIVF(ctx context.Context, q []float32, opts Options) ([]Result, error) {
	iv := ix.ivfLayer()
	sc := scratchPool.Get().(*scratch)
	defer sc.free()
	sc.begin([][]float32{q}, opts)
	st := &sc.qs[0]
	cands := iv.candidates(st.q, opts.NProbe)
	ix.tiles.Add(uint64(1 + (iv.nlist-1)/blockRows)) // centroid scoring pass
	if opts.Quantized && st.bounded {
		var err error
		cands, err = ix.quantShortlist(ctx, sc, st, iv, cands, opts)
		if err != nil {
			return nil, err
		}
	}
	for _, l := range cands {
		if err := ix.rerank(ctx, sc, st, l, opts.K, opts.Skip); err != nil {
			return nil, err
		}
	}
	rs := slices.Clone([]Result(st.top))
	sortResults(rs)
	return rs, nil
}

// queryBatchIVF runs queryIVF per query on a bounded worker pool. Queries
// are independent, so parallelism affects speed only. On cancellation the
// whole batch fails with one error; workers drain the query counter
// without scanning once any query errors.
func (ix *Index) queryBatchIVF(ctx context.Context, qs [][]float32, opts Options, out [][]Result) ([][]Result, error) {
	workers := opts.effectiveWorkers(len(qs))
	if workers == 1 {
		for qi, q := range qs {
			rs, err := ix.queryIVF(ctx, q, opts)
			if err != nil {
				return nil, err
			}
			out[qi] = rs
		}
		return out, nil
	}
	var failed atomic.Bool
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				qi := int(next.Add(1))
				if qi >= len(qs) {
					return
				}
				if failed.Load() {
					continue
				}
				rs, err := ix.queryIVF(ctx, qs[qi], opts)
				if err != nil {
					failed.Store(true)
					continue
				}
				out[qi] = rs
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return nil, canceledErr(ctx.Err())
	}
	return out, nil
}

// PredictedCost estimates the scan work one Query with opts will perform,
// in multiply-accumulate units (rows × dims touched). It is the admission
// currency of the serving tier: a flat scan costs rows·dim; an IVF probe
// costs the centroid pass plus the expected fraction of rows its probe
// width reaches (quantized shortlists count at a quarter weight — int8
// traffic — plus the exact re-rank of the kept shortlist). The estimate
// is derived from index geometry only and never forces the IVF build. A
// flat scan is deliberately still priced at rows·dim although it now moves
// about a quarter of those bytes: the server's MaxInFlight budget and its
// brownout thresholds are denominated in "one flat scan", and re-weighting
// flat against IVF is a change to admission policy, not to the scan.
func (ix *Index) PredictedCost(opts Options) int64 {
	if opts.K <= 0 || ix.rows == 0 {
		return 0
	}
	rows, dim := int64(ix.rows), int64(ix.mat.Dim)
	flat := rows * dim
	if !opts.wantIVF() {
		return flat
	}
	nlist := int64(ivfClusters(ix.rows))
	np := int64(opts.NProbe)
	if np <= 0 {
		np = int64(defaultNProbe(int(nlist)))
	}
	if np > nlist {
		np = nlist
	}
	// Expected candidates under a uniform cluster-size model.
	cand := rows * np / nlist
	cost := nlist * dim // centroid scoring
	if opts.Quantized {
		keep := int64(opts.K * rerankFactor)
		if keep < rerankMin {
			keep = rerankMin
		}
		if keep > cand {
			keep = cand
		}
		cost += cand*dim/4 + keep*dim // int8 pre-screen + exact re-rank
	} else {
		cost += cand * dim
	}
	if cost > flat {
		cost = flat
	}
	if cost < 1 {
		cost = 1
	}
	return cost
}

// candidates returns the posting lists of the nprobe most promising
// non-empty clusters (centroid dot product desc, centroid id asc — the
// MIPS probe rule; for a normalized index this is cosine). Lists are
// returned as-is, not concatenated: selection downstream is canonical, so
// enumeration order cannot change the answer, and skipping the merge keeps
// the per-query constant cost low. Skipping empty lists keeps NProbe an
// honest work budget, and makes NProbe >= nlist exhaustive even when
// k-means left clusters empty.
func (iv *ivfIndex) candidates(q []float32, nprobe int) [][]int32 {
	if nprobe <= 0 {
		nprobe = defaultNProbe(iv.nlist)
	}
	scores := make([]float32, iv.nlist)
	vecmath.DotRows(scores, iv.centroids, q)
	order := make([]int32, iv.nlist)
	for c := range order {
		order[c] = int32(c)
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := order[a], order[b]
		if scores[ca] != scores[cb] {
			return scores[ca] > scores[cb]
		}
		return ca < cb
	})
	probeLists := make([][]int32, 0, nprobe)
	for _, c := range order {
		l := iv.lists[c]
		if len(l) == 0 {
			continue
		}
		probeLists = append(probeLists, l)
		if len(probeLists) == nprobe {
			break
		}
	}
	return probeLists
}

// quantShortlist pre-screens candidates with int8 quantized dot products
// — each row's codes against the int16 query of st, by the same kernel as
// the flat scan — keeping the max(rerankFactor*K, rerankMin) best under the
// total order for the exact re-rank. Quantized scores only ever decide
// membership of the re-rank set; they are never served. The context is
// checked once per blockRows candidates (a tile unit of work, counted on
// ix.tiles).
func (ix *Index) quantShortlist(ctx context.Context, sc *scratch, st *scan, iv *ivfIndex, lists [][]int32, opts Options) ([][]int32, error) {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	keep := max(opts.K*rerankFactor, rerankMin)
	if keep >= total {
		return lists, nil
	}
	dim := iv.dim
	dot := sc.dots[:1]
	for _, l := range lists {
		for _, id := range l {
			if st.seen%blockRows == 0 {
				if err := ctx.Err(); err != nil {
					return nil, canceledErr(err)
				}
				ix.tiles.Add(1)
			}
			st.seen++
			if opts.Skip != nil && opts.Skip(id) {
				continue
			}
			vecmath.DotRowsI8(dot, iv.codes[int(id)*dim:(int(id)+1)*dim], st.u)
			approx := float64(iv.scales[id]) * st.t * float64(dot[0])
			pushBounded(&st.top, Result{ID: id, Score: float32(approx)}, keep)
		}
	}
	ids := make([]int32, len(st.top))
	for i, r := range st.top {
		ids[i] = r.ID
	}
	slices.Sort(ids)
	st.top, st.seen = st.top[:0], 0
	return [][]int32{ids}, nil
}
