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
//     already seen. The few survivors are scored with the float32 kernel on
//     the float rows and selected under the total order (score desc, id
//     asc), so the answer is exactly the full float scan's — ids, scores
//     and tie-breaks — for a quarter of the bytes.
//
//   - Index "ivf": a sub-linear approximate scan, the shape production
//     systems put in front of a 25M–800M item corpus. Rows are clustered
//     under deterministic k-means coarse centroids; a query probes the
//     Options.NProbe most promising clusters and scores their rows with the
//     exact float32 kernel — so served scores are always exact floats, only
//     membership of the candidate set is approximate. NProbe >= the cluster
//     count degenerates to an exhaustive scan that is bit-identical to
//     "flat".
//
// The only entry points are Query and QueryBatch, both taking a context
// and Options — every read path is cancellable by construction. Each
// invariant below names the test that proves it.
//
// # Determinism
//
// For a given matrix, query and Options, results are bit-identical across
// shard count, worker count, batching and platform
// (TestQueryBitIdenticalToSerialProperty, TestQueryShardInvariance,
// TestQueryBatchMatchesSingle). Three facts carry this.
//
// One schedule. Every served score comes from vecmath's 16-lane
// accumulation schedule, per row: DotRows over a tile, DotRowsAt over
// gathered survivors and DotRowsRef all compute the same float for the same
// row (the kernels' own tests are in the vecmath package doc), so a row's
// score does not depend on who scores it or with which rows.
//
// One total order. Selection runs entirely under (score desc, id asc). The
// k-bounded heap orders by it (worse) and evicts by it (better, in
// pushBounded) — not by score alone — so exact ties at the heap boundary
// resolve to the lowest id whatever order candidates arrive in
// (TestTieBreakDeterminism). Workers claim shards off an atomic counter,
// each keeps its own top-K over the shards it visits, and the union of
// their lists is sorted under the same order and truncated: shard
// boundaries and completion order cannot change the answer. The IVF path
// needs this most, since it enumerates candidates in probe order, not id
// order.
//
// Pruning only drops provable losers. The flat scan's int8 pass discards a
// row only when K other rows provably beat it under the total order (next
// section).
//
// # int8 first, and still exact
//
// Every index carries an int8 mirror of its rows: vecmath.QuantizeRow codes
// in vecmath's 16-row block layout with each row's code sum and scale
// (shards start on a block). A worker handles each 256-row tile in one
// kernel pass and a short loop: vecmath.DotRowsI8Mask scores the tile's
// codes against the query quantised to int16 — exact integer sums D — and in
// the same pass flags the rows that can still be in the top-K; scan.prune
// visits only the flagged rows.
//
// The bound. A row x is stored as codes c and a scale s with
// |xᵢ − s·cᵢ| ≤ s/2; the query q as codes u and a step t with
// |qᵢ − t·uᵢ| ≤ t/2 (|uᵢ| ≤ 32767 up to dim 516, lower beyond, so that
// 127·max|u|·dim < 2³¹ and D cannot overflow). Expanding x·q around s·t·D
// gives |x·q − s·t·D| ≤ s·‖q‖₁/2 + s·127·dim·t/2, and the float32 kernel's
// score is within 127·s·‖q‖₁·(dim+1)·2⁻²⁴ of x·q. With
// b = ‖q‖₁·(½ + 254·dim·2⁻²³) + t·127·dim/2 — the rounding term charged four
// times over — inflated by 2⁻²⁰ for the float64 arithmetic and the last-bit
// slack of the two quantisers, the served score lies in
// [lo, up] = s·(t·D ∓ b). A zero row has s = 0 and lo = up = 0, its exact
// score. The rounding term assumes no float32 product underflows or
// overflows, so the bound is only claimed for scales and query peaks in
// [2⁻⁶⁴, 2⁴⁰]: a row outside it (or with a NaN) carries a NaN scale and is
// never pruned; a query outside it, or non-finite, takes the float tile
// scan (scanTileFloat). TestScoreIntervalHoldsWhereTight builds rows that
// sit 0.4999 of a step off their codes, all on one side, and fails if b is
// cut by a tenth.
//
// The two rules. τ is the K-th largest lo among the non-skipped rows a
// worker has seen. (1) During the ascending scan a row with up ≤ τ is
// dropped. (2) After the scan, candidates with up < τ_final are dropped.
//
// Why flat stays exact. (i) Every row's served score lies in its [lo, up].
// (ii) Rule 1: the K rows holding τ all score ≥ τ ≥ up ≥ the dropped row's
// score and all have smaller ids (the scan is ascending), so each beats it
// under (score desc, id asc) even on a tie. (iii) Rule 2: K rows score
// ≥ τ_final > up ≥ its score — strictly, so ids do not matter. (iv) Nothing
// else is dropped, the survivors get the float kernel's own scores and the
// total-order selection, and the top-K of a superset of the top-K is the
// top-K (TestFlatPrunedBitIdenticalToFloatScan: Gaussian rows, norms over
// five decades, duplicates and near-duplicates, half all-zero rows,
// out-of-range rows; zero, tiny and huge queries; K past the row count;
// skips that remove the τ-holders; 1–7 shards).
//
// A per-worker τ is enough: it only has to certify that K rows this worker
// has seen beat the dropped row, which makes the worker's top-K exact over
// its rows, and the merge of exact per-partition top-K lists is the global
// top-K whatever the partition. A worker carries its τ across the shards
// it visits, in ascending order, so at Parallelism 1 it is a global τ.
//
// Rule 1 is non-strict because of ties: when zero rows hold τ = 0, a strict
// rule lets every other zero row survive into a second full scan.
// TestFlatRerankStaysSmallOnTiedCorpus holds the survivors under 5 % on a
// corpus where half the rows are zero (a strict rule leaves half of them).
//
// The kernel makes the rule-1 decision. DotRowsI8Mask flags the rows with
// !(up ≤ τ) for τ as it stood when the tile began, and scan.prune re-tests
// each flagged row with ScoreInterval against the current τ. τ only rises
// within a tile, so a row the kernel leaves out would have been dropped by
// the per-row loop too, and a flagged row meets exactly the per-row test:
// the candidates, τ_final and every answer are those of rule 1 applied row
// by row (TestKernelPruneMatchesPerRowSpec, which also tells apart a spec
// with an ordered compare, losing the NaN-scale rows, or a bound from
// t·(D − 1)).
//
// # The exact re-rank
//
// One routine, Index.rerank, scores candidates exactly for both strategies:
// a flat worker's survivors after its shards, and every probed IVF list.
// The rows are scored in place — no gather copy — in chunks of at most
// 256 ids, one vecmath.DotRowsAt call per chunk, which prefetches the rows
// a few ids ahead so that the scattered rows' cache misses overlap; each
// chunk is folded into the heap with pushBounded in the order of ids. Because the
// schedule is per row, a candidate's score is bit-for-bit the score a
// tiled DotRows over the whole matrix gives the same row, and because the
// heap selects under the total order, neither the chunking nor the order
// of lists matters. TestManySurvivorsBitIdenticalToReference holds flat
// answers at 1 and 2 workers and exhaustive IVF answers equal to the
// DotRowsRef top-K, ids and score bits, on a corpus of tied and near-tied
// rows that leaves thousands of candidates per query.
//
// # Cancellation
//
// Query and QueryBatch check the context once on entry, once per scan tile
// and once per 256 re-rank candidates, and never inside a tile or chunk;
// TilesScanned counts each tile a check let through (once per query of a
// batch) and each re-rank chunk. A cancelled call
// returns an error wrapping both ErrCanceled and the context's own error
// and stops within one tile or chunk of work per worker
// (TestQueryCancelMidScanStopsScanning, TestQueryCancelMidRerankStopsWithinAChunk,
// TestQueryCancelBoundsParallelAndBatchWork); a call that is not
// cancelled is bit-identical to an uncancellable one
// (TestUncancelledQueryBitIdenticalToReference), since the checks only
// decide whether to keep going, never what a kept result contains.
//
// # Where the mirror comes from, and the scratch
//
// The mirror is built once per index under a sync.Once: by BuildIVF's
// quantising pass when that runs first (every stream publish), else by
// BuildQuantized (a batch model's snapshot), else by the first flat query
// (TestQuantizedMirrorIsSharedAndBuiltOnce). A scan's working memory — the
// int32 tile and its mask words, the candidate list, the τ-heap, the int16
// query and its byte planes, the normalised query copy and the re-rank's
// chunk of scores — is a pooled scratch, and the heaps are typed, so a flat
// query allocates its result and a constant handful of small objects
// whatever the rows (TestFlatQueryAllocationsAreConstant).
//
// QueryBatch runs the same tile routine with one scan state per query, so
// each tile is streamed from memory once for the whole batch; results equal
// len(qs) independent Query calls (TestQueryBatchMatchesSingle,
// TestFlatBatchMixedQueriesBitIdentical).
//
// # IVF
//
// A deterministic k-means with nlist ≈ √rows coarse centroids partitions
// the rows: centroids seed from evenly spaced rows (no RNG); Lloyd
// iterations assign each row to argmax(c·x − ‖c‖²/2), ties to the lowest
// centroid id; centroid updates run serially in ascending order; an empty
// cluster keeps its old centroid. The posting lists are ascending and built
// once behind a sync.Once: lazily by the first IVF query, or by BuildIVF
// before readers see the index, optionally warm-started from the previous
// generation's centroids with one assignment pass
// (TestWarmBuildIsAssignMeanQuantize). Assignment fans row blocks over a
// worker pool; the work is per row, so parallelism cannot change the
// result. A query scores all centroids with DotRows, probes the NProbe best
// non-empty lists (score desc, id asc, so NProbe ≥ nlist is exhaustive even
// when k-means leaves clusters empty) and re-ranks their rows exactly.
// Approximation therefore decides only which rows are considered: every
// served (id, score) pair is one the flat scan could have served, and at
// exhaustive probe IVF equals flat bit for bit
// (TestIVFExhaustiveBitIdenticalToFlat). On a clustered corpus some probe
// width short of every list reaches recall@10 ≥ 0.95
// (TestIVFRecallOnClusteredData).
package knn
