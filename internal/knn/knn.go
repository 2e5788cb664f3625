// Package knn is the retrieval engine of the matching stage ("the K most
// similar items", §IV-A). It offers two execution strategies behind one
// Options API:
//
//   - Index "flat" (the default): an exact top-K scan. The matrix is split
//     into row shards, every query fans out across shards on a bounded
//     worker pool, each shard is scored with the cache-blocked SIMD kernel
//     in internal/vecmath and reduced into a per-shard top-k min-heap, and
//     the shard heaps merge under the total order (score desc, id asc).
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
// platform. Two facts carry this: scores come from one fixed accumulation
// schedule (vecmath.DotRows == vecmath.DotRowsRef, bit-exact), and top-k
// selection is performed entirely under the total order (score desc,
// id asc) — including tie-breaks at the heap boundary — so it has exactly
// one answer no matter how the scan is partitioned or which candidates an
// IVF probe surfaces.
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
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
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
// matrix. It is immutable after construction and safe for concurrent use
// (the IVF layer — built by BuildIVF, or lazily by the first IVF query —
// is guarded by a sync.Once).
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
// read-only. Results are bit-identical to a serial scan regardless of
// sharding and parallelism.
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
	q = ix.prepared(q, opts)
	if opts.wantIVF() {
		return ix.queryIVF(ctx, q, opts)
	}
	per := make([]minHeap, len(ix.shards))
	err := ix.fanOut(ctx, opts.effectiveWorkers(len(ix.shards)), func(si int, buf []float32) error {
		h := make(minHeap, 0, opts.K)
		if err := ix.scanShard(ctx, &h, buf, q, ix.shards[si], opts.K, opts.Skip); err != nil {
			return err
		}
		per[si] = h
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeTopK(per, opts.K), nil
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
	prepared := make([][]float32, len(qs))
	for i, q := range qs {
		prepared[i] = ix.prepared(q, opts)
	}
	if opts.wantIVF() {
		return ix.queryBatchIVF(ctx, prepared, opts, out)
	}
	// per[si][qi] is query qi's top-k heap over shard si.
	per := make([][]minHeap, len(ix.shards))
	err := ix.fanOut(ctx, opts.effectiveWorkers(len(ix.shards)), func(si int, buf []float32) error {
		hs := make([]minHeap, len(prepared))
		for qi := range hs {
			hs[qi] = make(minHeap, 0, opts.K)
		}
		sp := ix.shards[si]
		dim := ix.mat.Dim
		data := ix.mat.Data()
		for b := sp.lo; b < sp.hi; b += blockRows {
			if err := ctx.Err(); err != nil {
				return canceledErr(err)
			}
			n := min(blockRows, sp.hi-b)
			block := data[b*dim : (b+n)*dim : (b+n)*dim]
			for qi, q := range prepared {
				scores := buf[:n]
				vecmath.DotRows(scores, block, q)
				sift(&hs[qi], scores, int32(b), opts.K, opts.Skip)
			}
			ix.tiles.Add(uint64(len(prepared)))
		}
		per[si] = hs
		return nil
	})
	if err != nil {
		return nil, err
	}
	shardHeaps := make([]minHeap, len(ix.shards))
	for qi := range out {
		for si := range per {
			shardHeaps[si] = per[si][qi]
		}
		out[qi] = mergeTopK(shardHeaps, opts.K)
	}
	return out, nil
}

// prepared returns the query to scan with: the caller's slice as-is, or a
// normalized private copy when opts.Normalize is set.
func (ix *Index) prepared(q []float32, opts Options) []float32 {
	if !opts.Normalize {
		return q
	}
	qc := make([]float32, len(q))
	copy(qc, q)
	vecmath.Normalize(qc)
	return qc
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

// fanOut runs work(shardIndex, scratch) for every shard on up to workers
// goroutines. Each worker owns one scratch score buffer for its lifetime.
// When any work call errors, remaining shards are skipped (workers drain
// the shard counter without scanning) and the call returns one error
// derived from ctx — every error path here is a cancellation, so the
// context is the authority on why.
func (ix *Index) fanOut(ctx context.Context, workers int, work func(si int, buf []float32) error) error {
	if workers == 1 {
		buf := make([]float32, blockRows)
		for si := range ix.shards {
			if err := work(si, buf); err != nil {
				return err
			}
		}
		return nil
	}
	var failed atomic.Bool
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float32, blockRows)
			for {
				si := int(next.Add(1))
				if si >= len(ix.shards) {
					return
				}
				if failed.Load() {
					continue // drain remaining shards without scanning
				}
				if err := work(si, buf); err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return canceledErr(ctx.Err())
	}
	return nil
}

// scanShard reduces one shard into h: scores are computed one tile at a
// time by the blocked kernel, then folded into the k-bounded min-heap in
// ascending row order (which keeps tie handling identical to a serial
// scan). The context is checked once per tile — cancellation abandons the
// shard within one tile of work.
func (ix *Index) scanShard(ctx context.Context, h *minHeap, buf []float32, q []float32, sp span, k int, skip func(int32) bool) error {
	dim := ix.mat.Dim
	data := ix.mat.Data()
	for b := sp.lo; b < sp.hi; b += blockRows {
		if err := ctx.Err(); err != nil {
			return canceledErr(err)
		}
		n := min(blockRows, sp.hi-b)
		scores := buf[:n]
		vecmath.DotRows(scores, data[b*dim:(b+n)*dim:(b+n)*dim], q)
		sift(h, scores, int32(b), k, skip)
		ix.tiles.Add(1)
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

// pushBounded folds one candidate into a k-bounded min-heap whose root is
// the worst kept result under the total order. Replacement uses the full
// total order (not just score), so exact ties at the k boundary resolve to
// the lowest id no matter the order candidates arrive in — the property
// the IVF path leans on, since probe order is score-driven, not id-driven.
func pushBounded(h *minHeap, r Result, k int) {
	if len(*h) < k {
		heap.Push(h, r)
		return
	}
	if better(r, (*h)[0]) {
		(*h)[0] = r
		heap.Fix(h, 0)
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
		heap.Push(h, Result{ID: id, Score: scores[i]})
	}
	if i == len(scores) {
		return
	}
	root := (*h)[0]
	if skip == nil {
		for ; i < len(scores); i++ {
			if r := (Result{ID: base + int32(i), Score: scores[i]}); better(r, root) {
				(*h)[0] = r
				heap.Fix(h, 0)
				root = (*h)[0]
			}
		}
		return
	}
	for ; i < len(scores); i++ {
		if r := (Result{ID: base + int32(i), Score: scores[i]}); better(r, root) && !skip(r.ID) {
			(*h)[0] = r
			heap.Fix(h, 0)
			root = (*h)[0]
		}
	}
}

// mergeTopK concatenates per-shard heaps and selects the global top-k
// under the total order (score desc, id asc). Because the order is total,
// the outcome is independent of shard boundaries and merge order.
func mergeTopK(per []minHeap, k int) []Result {
	total := 0
	for _, h := range per {
		total += len(h)
	}
	all := make([]Result, 0, total)
	for _, h := range per {
		all = append(all, h...)
	}
	sortResults(all)
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// sortResults orders by score descending, breaking ties by id ascending —
// the engine's canonical total order.
func sortResults(rs []Result) {
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].Score != rs[b].Score {
			return rs[a].Score > rs[b].Score
		}
		return rs[a].ID < rs[b].ID
	})
}

// minHeap keeps the k best results with the worst — under the canonical
// total order (score desc, id asc) — at the root, so boundary evictions
// are deterministic even on exact score ties.
type minHeap []Result

func (h minHeap) Len() int { return len(h) }
func (h minHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].ID > h[j].ID
}
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
