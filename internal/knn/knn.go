// Package knn is the retrieval engine of the matching stage ("the K most
// similar items", §IV-A). It offers two execution strategies behind one
// Options API:
//
//   - Index "flat" (the default): an exact top-K scan that reads int8
//     first. The matrix is split into row shards and every query fans out
//     across shards on a bounded worker pool. A worker scores each 256-row
//     tile of the index's int8 mirror with the integer SIMD kernel in
//     internal/vecmath, which in the same pass turns every integer score
//     into an interval that provably contains the row's float32 score and
//     flags only the rows whose interval does not lie below K intervals
//     already seen (see scan.prune for the bound and the two pruning
//     rules). The few survivors are scored with the float32 kernel on the
//     float rows and selected under the total order (score desc, id asc),
//     so the answer is exactly the full float scan's — ids, scores and
//     tie-breaks — for a quarter of the bytes.
//
//   - Index "ivf": a sub-linear approximate scan, the shape production
//     systems put in front of a 25M–800M item corpus. Rows are clustered
//     under deterministic k-means coarse centroids (see ivf.go); a query
//     probes the Options.NProbe most promising clusters, optionally scores
//     the shortlist with int8 quantized dot products (4x less memory
//     traffic), and re-ranks the candidates with the exact float32 kernel —
//     so served scores are always exact floats, only membership of the
//     candidate set is approximate. NProbe >= the cluster count degenerates
//     to an exhaustive scan that is bit-identical to "flat".
//
// Determinism guarantee: for a given matrix, query and Options, results
// are bit-identical across shard count, worker count, batching, and
// platform. Three facts carry this: served scores come from one fixed
// accumulation schedule (vecmath.DotRows == vecmath.DotRowsRef, bit-exact);
// top-k selection is performed entirely under the total order (score desc,
// id asc) — including tie-breaks at the heap boundary — so it has exactly
// one answer no matter how the scan is partitioned or which candidates an
// IVF probe surfaces; and the flat scan's int8 pass only ever discards a
// row that K other rows provably beat under that order.
//
// Cancellation: Query and QueryBatch take a context.Context, checked at
// tile and shard boundaries (one tile is 256 rows), so a serving timeout
// or a client disconnect stops the scan within one tile of work instead of
// burning CPU on an answer nobody will read. A cancelled call returns an
// error wrapping both ErrCanceled and the context's own error; a call that
// completes is bit-identical to an uncancellable one — the checks only
// ever decide whether to keep going, never what a kept result contains.
//
// The only entry points are Query and QueryBatch, both taking a context
// and Options — every read path is cancellable by construction.
package knn

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"sisg/internal/emb"
	"sisg/internal/vecmath"
)

// ErrCanceled is the sentinel wrapped by every error a cancelled Query or
// QueryBatch returns. The returned error also wraps the context's own
// error, so callers can distinguish a client that went away
// (context.Canceled) from a deadline that fired (context.DeadlineExceeded)
// with errors.Is on either.
var ErrCanceled = errors.New("knn: query canceled")

// canceledErr wraps a non-nil context error in the package sentinel.
func canceledErr(cause error) error {
	if cause == nil {
		return ErrCanceled
	}
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// Result is one retrieved neighbour.
type Result struct {
	ID    int32
	Score float32
}

// Index strategy names accepted by Options.Index.
const (
	// IndexFlat is the exact sharded scan (the default).
	IndexFlat = "flat"
	// IndexIVF is the approximate inverted-file index: probe NProbe
	// k-means clusters, exact float32 re-rank of the candidates.
	IndexIVF = "ivf"
)

// Options controls one Query or QueryBatch call.
type Options struct {
	// K is the number of neighbours to return (<=0 returns nil).
	K int
	// Normalize L2-normalizes a private copy of the query before scoring,
	// turning dot products against a normalized index into cosine
	// similarities. The caller's slice is never mutated.
	Normalize bool
	// Skip, if non-nil, excludes rows from the result (typically the query
	// item itself). In QueryBatch the same predicate applies to every
	// query in the batch; per-query exclusion is done by querying k+1 and
	// dropping the known id, or by issuing single Query calls.
	Skip func(int32) bool
	// Parallelism bounds the workers fanning one call across shards
	// (<=0 means GOMAXPROCS). It affects speed only, never results.
	Parallelism int
	// Index selects the execution strategy: "" or IndexFlat for the exact
	// scan, IndexIVF for the approximate inverted-file index. The IVF
	// layer is built exactly once: by BuildIVF, else on the first IVF
	// query.
	Index string
	// NProbe is the number of non-empty IVF clusters a query inspects
	// (<=0 means a default of about sqrt(nlist)). Larger values trade
	// speed for recall; NProbe >= the cluster count is an exhaustive scan,
	// bit-identical to IndexFlat. Only meaningful with IndexIVF.
	NProbe int
	// Quantized scores the IVF shortlist with int8 quantized dot products
	// before the exact float32 re-rank — 4x less scan traffic at a small
	// recall cost (TestIVFRecallOnClusteredData holds both to the same
	// floor). Only meaningful with IndexIVF; served scores stay exact
	// float32 either way.
	Quantized bool
}

// Validate reports whether the options describe an executable query:
// positive K, a known Index name, and NProbe/Quantized only combined with
// the IVF index. It is the validation surface API layers (the /v1 server)
// map onto their own error envelopes; Query panics on an unknown index
// name rather than silently falling back.
func (o Options) Validate() error {
	if o.K <= 0 {
		return fmt.Errorf("knn: k must be positive, got %d", o.K)
	}
	switch o.Index {
	case "", IndexFlat:
		if o.NProbe != 0 {
			return fmt.Errorf("knn: nprobe is only meaningful with index=%s", IndexIVF)
		}
		if o.Quantized {
			return fmt.Errorf("knn: quantized is only meaningful with index=%s", IndexIVF)
		}
	case IndexIVF:
		if o.NProbe < 0 {
			return fmt.Errorf("knn: nprobe must be >= 0 (0 means default), got %d", o.NProbe)
		}
	default:
		return fmt.Errorf("knn: unknown index %q (want %q or %q)", o.Index, IndexFlat, IndexIVF)
	}
	return nil
}

// wantIVF reports whether the options select the IVF strategy, panicking
// on an unknown index name (callers with untrusted input run Validate
// first).
func (o Options) wantIVF() bool {
	switch o.Index {
	case "", IndexFlat:
		return false
	case IndexIVF:
		return true
	default:
		panic("knn: unknown index " + o.Index)
	}
}

// blockRows is the scan tile: scores are computed blockRows rows at a time
// into a scratch buffer, so the kernel runs branch-free over contiguous
// memory and a batch can reuse a resident block across queries.
// 256 rows × 128 dims × 4 B = 128 KiB, comfortably inside L2.
const blockRows = 256

// span is one shard's half-open row range.
type span struct{ lo, hi int }

// Index is a sharded retrieval index over the first rows rows of a
// matrix. It is immutable after construction and safe for concurrent use:
// its two derived layers — the int8 mirror every flat scan reads first
// (BuildQuantized, else the first query that needs it) and the IVF layer
// (BuildIVF, else the first IVF query) — are each built once, under a
// sync.Once.
type Index struct {
	mat    *emb.Matrix
	rows   int
	shards []span

	// tiles counts scan work actually performed, in tile units (one unit
	// is one kernel pass over up to blockRows rows, or the IVF
	// equivalent). It exists so cancellation is *provable*: a test or a
	// serving metric can assert that a cancelled query stopped scanning
	// instead of trusting that it did.
	tiles atomic.Uint64

	mirrorOnce sync.Once
	mirror     atomic.Pointer[quantMirror]

	ivfOnce sync.Once
	ivf     atomic.Pointer[ivfIndex]
}

// NewIndex builds an index over the first rows rows of mat with automatic
// sharding (one shard per CPU, fewer for small matrices). rows <= 0 means
// all rows. When normalize is set the matrix is copied and row-normalized
// (dot products become cosines); otherwise the index holds a reference and
// callers must not mutate mat during searches.
func NewIndex(mat *emb.Matrix, rows int, normalize bool) *Index {
	return NewIndexSharded(mat, rows, normalize, 0)
}

// NewIndexSharded is NewIndex with an explicit shard count (<=0 means
// automatic). Shard count affects parallel speed only: results are
// bit-identical at every shard count.
func NewIndexSharded(mat *emb.Matrix, rows int, normalize bool, shards int) *Index {
	if rows <= 0 || rows > mat.Rows() {
		rows = mat.Rows()
	}
	if normalize {
		mat = emb.NormalizedCopy(mat)
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	// No point cutting shards smaller than a scan tile.
	if maxShards := (rows + blockRows - 1) / blockRows; shards > maxShards {
		shards = maxShards
	}
	if shards < 1 {
		shards = 1
	}
	ix := &Index{mat: mat, rows: rows, shards: make([]span, 0, shards)}
	for s := 0; s < shards; s++ {
		lo := rows * s / shards
		hi := rows * (s + 1) / shards
		if lo < hi {
			ix.shards = append(ix.shards, span{lo, hi})
		}
	}
	return ix
}

// Rows returns the number of indexed rows.
func (ix *Index) Rows() int { return ix.rows }

// Shards returns the number of row shards.
func (ix *Index) Shards() int { return len(ix.shards) }

// Dim returns the embedding dimensionality of the indexed rows.
func (ix *Index) Dim() int { return ix.mat.Dim }

// TilesScanned returns the cumulative scan work this index has performed,
// in tile units (one unit ≈ one kernel pass over up to 256 rows). The
// counter is monotone and safe to read concurrently; the difference across
// a call bounds the work that call did — which is how tests prove a
// cancelled query stopped scanning.
func (ix *Index) TilesScanned() uint64 { return ix.tiles.Load() }

// Query returns the top-K rows by dot product with q under the total
// order (score desc, id asc), honouring opts. The query slice is
// read-only. Results are bit-identical to a serial float32 scan of every
// row regardless of sharding and parallelism.
//
// ctx is checked at tile and shard boundaries: when it is cancelled the
// call stops scanning within one tile per worker and returns an error
// wrapping ErrCanceled and ctx.Err(). A nil result with a nil error means
// the query asked for nothing (K <= 0 or an empty index).
func (ix *Index) Query(ctx context.Context, q []float32, opts Options) ([]Result, error) {
	if opts.K <= 0 || ix.rows == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(err)
	}
	if opts.wantIVF() {
		return ix.queryIVF(ctx, q, opts)
	}
	out := make([][]Result, 1)
	if err := ix.queryFlat(ctx, [][]float32{q}, opts, out); err != nil {
		return nil, err
	}
	return out[0], nil
}

// QueryBatch runs Query for every query in qs under one shared Options
// and returns results in query order. Queries are coalesced per shard:
// each scan tile of rows is streamed once and scored against every query
// while it is cache-resident, so a batch costs far less memory traffic
// than len(qs) single queries. Results are bit-identical to len(qs)
// independent Query calls. Cancellation follows Query: checked per tile,
// the whole batch fails with one error wrapping ErrCanceled.
func (ix *Index) QueryBatch(ctx context.Context, qs [][]float32, opts Options) ([][]Result, error) {
	out := make([][]Result, len(qs))
	if opts.K <= 0 || ix.rows == 0 || len(qs) == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(err)
	}
	if opts.wantIVF() {
		return ix.queryBatchIVF(ctx, qs, opts, out)
	}
	if err := ix.queryFlat(ctx, qs, opts, out); err != nil {
		return nil, err
	}
	return out, nil
}

// effectiveWorkers bounds the fan-out width by the shard count.
func (o Options) effectiveWorkers(shards int) int {
	w := o.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > shards {
		w = shards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// queryFlat answers every query of qs exactly, into out. Up to
// Parallelism workers take shards off a shared counter. A worker keeps one
// scan state per query across all the shards it visits — it visits them in
// ascending row order, which is all the pruning rule needs — and ends by
// scoring its surviving candidates exactly. Whatever shards each worker
// got, the union of their top-K lists holds the global top-K, and the
// merge under the total order has one answer. Every error is a
// cancellation, so the context is the authority on why.
func (ix *Index) queryFlat(ctx context.Context, qs [][]float32, opts Options, out [][]Result) error {
	workers := opts.effectiveWorkers(len(ix.shards))
	for qi := range out {
		out[qi] = make([]Result, 0, workers*min(opts.K, ix.rows))
	}
	mir := ix.quantized()
	var (
		next atomic.Int64 // the next shard nobody has taken
		mu   sync.Mutex   // guards out
	)
	worker := func() error {
		sc := scratchPool.Get().(*scratch)
		defer sc.free()
		sc.begin(qs, opts)
		for si := int(next.Add(1)) - 1; si < len(ix.shards); si = int(next.Add(1)) - 1 {
			if err := ix.scanShard(ctx, sc, mir, ix.shards[si], opts); err != nil {
				return err
			}
		}
		for qi := range sc.qs {
			st := &sc.qs[qi]
			if err := ix.rerank(ctx, sc, st, st.survivors(), opts.K, nil); err != nil {
				return err
			}
		}
		// The scratch goes back to the pool: copy the answers out of it.
		mu.Lock()
		defer mu.Unlock()
		for qi := range sc.qs {
			out[qi] = append(out[qi], sc.qs[qi].top...)
		}
		return nil
	}
	if workers == 1 {
		if err := worker(); err != nil {
			return err
		}
	} else {
		var failed atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if worker() != nil {
					failed.Store(true)
				}
			}()
		}
		wg.Wait()
		if failed.Load() {
			return canceledErr(ctx.Err())
		}
	}
	for qi, rs := range out {
		sortResults(rs)
		out[qi] = rs[:min(opts.K, len(rs))]
	}
	return nil
}

// scanShard runs every query of sc over one shard, a tile at a time: the
// tile's int8 codes are scored against the query by the integer kernel and
// pruned (scan.prune); a query whose bound does not hold — a non-finite or
// out-of-range one — gets the tile's float rows instead (scanTileFloat).
// A tile is streamed from memory once per call: the second query of a
// batch finds it in cache. The context is checked once per tile —
// cancellation abandons the shard within one tile of work.
func (ix *Index) scanShard(ctx context.Context, sc *scratch, mir *quantMirror, sp span, opts Options) error {
	dim := ix.mat.Dim
	for b := sp.lo; b < sp.hi; b += blockRows {
		if err := ctx.Err(); err != nil {
			return canceledErr(err)
		}
		n := min(blockRows, sp.hi-b)
		for qi := range sc.qs {
			st := &sc.qs[qi]
			if !st.bounded {
				ix.scanTileFloat(sc, st, b, n, opts)
				continue
			}
			st.prune(sc.dots[:n], sc.mask[:(n+63)/64], mir.codes[b*dim:(b+n)*dim], mir.scales[b:b+n], int32(b), opts.K, opts.Skip)
		}
		ix.tiles.Add(uint64(len(sc.qs)))
	}
	return nil
}

// scanTileFloat is the scan without the int8 pass, for a query the bound
// does not cover: every row of the tile is scored by the float32 kernel
// and folded into the query's top-K.
func (ix *Index) scanTileFloat(sc *scratch, st *scan, b, n int, opts Options) {
	dim := ix.mat.Dim
	scores := sc.scores[:n]
	vecmath.DotRows(scores, ix.mat.Data()[b*dim:(b+n)*dim], st.q)
	sift(&st.top, scores, int32(b), opts.K, opts.Skip)
}

// rerank scores the rows of ids exactly into st.top, each with one DotRows
// call on the row in place — the schedule is per-row, so the score is
// bit-identical to what a tiled call over the whole matrix computes for
// the same row — selecting under the canonical total order. No gather
// copy. The context is checked once per blockRows candidates (a tile unit
// of work, counted on ix.tiles); st.seen carries the count from one list
// to the next.
func (ix *Index) rerank(ctx context.Context, sc *scratch, st *scan, ids []int32, k int, skip func(int32) bool) error {
	dim := ix.mat.Dim
	data := ix.mat.Data()
	score := sc.scores[:1]
	for _, id := range ids {
		if st.seen%blockRows == 0 {
			if err := ctx.Err(); err != nil {
				return canceledErr(err)
			}
			ix.tiles.Add(1)
		}
		st.seen++
		if skip != nil && skip(id) {
			continue
		}
		vecmath.DotRows(score, data[int(id)*dim:(int(id)+1)*dim], st.q)
		pushBounded(&st.top, Result{ID: id, Score: score[0]}, k)
	}
	return nil
}

// better reports whether a beats b under the engine's canonical total
// order (score desc, id asc). Because the order is total, "the top-k set"
// is uniquely defined and every selection below is enumeration-order
// independent.
func better(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// worse is the heap order of minHeap: the root is the worst kept result.
func worse(a, b Result) bool { return better(b, a) }

// heapPush appends x to the binary heap h (root = least under less) and
// restores the heap; heapFixRoot restores it after h[0] was replaced. They
// stand in for container/heap, which boxes every pushed element: a scan
// pushes on the request path. Heap shape never reaches a caller — kept
// sets are defined by the total order and sorted before they are returned.
func heapPush[T any](h []T, x T, less func(a, b T) bool) []T {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func heapFixRoot[T any](h []T, less func(a, b T) bool) {
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < len(h) && less(h[l], h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && less(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// minHeap keeps the k best results with the worst — under the canonical
// total order (score desc, id asc) — at the root, so boundary evictions
// are deterministic even on exact score ties.
type minHeap []Result

// pushBounded folds one candidate into a k-bounded min-heap whose root is
// the worst kept result under the total order. Replacement uses the full
// total order (not just score), so exact ties at the k boundary resolve to
// the lowest id no matter the order candidates arrive in — the property
// the IVF path leans on, since probe order is score-driven, not id-driven.
func pushBounded(h *minHeap, r Result, k int) {
	if len(*h) < k {
		*h = heapPush(*h, r, worse)
		return
	}
	if better(r, (*h)[0]) {
		(*h)[0] = r
		heapFixRoot(*h, worse)
	}
}

// sift folds one tile of scores (for rows base, base+1, …) into the heap.
// The no-skip fast path caches the heap-root threshold in a local so the
// common case — a row that does not make the top-k — costs one float
// compare per row; the id comparison only runs on an exact score tie with
// the root.
func sift(h *minHeap, scores []float32, base int32, k int, skip func(int32) bool) {
	i := 0
	for ; i < len(scores) && len(*h) < k; i++ {
		id := base + int32(i)
		if skip != nil && skip(id) {
			continue
		}
		*h = heapPush(*h, Result{ID: id, Score: scores[i]}, worse)
	}
	if i == len(scores) {
		return
	}
	root := (*h)[0]
	if skip == nil {
		for ; i < len(scores); i++ {
			if r := (Result{ID: base + int32(i), Score: scores[i]}); better(r, root) {
				(*h)[0] = r
				heapFixRoot(*h, worse)
				root = (*h)[0]
			}
		}
		return
	}
	for ; i < len(scores); i++ {
		if r := (Result{ID: base + int32(i), Score: scores[i]}); better(r, root) && !skip(r.ID) {
			(*h)[0] = r
			heapFixRoot(*h, worse)
			root = (*h)[0]
		}
	}
}

// sortResults orders by score descending, breaking ties by id ascending —
// the engine's canonical total order.
func sortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		switch {
		case better(a, b):
			return -1
		case better(b, a):
			return 1
		}
		return 0
	})
}
