// The int8 side of the index: the quantised mirror of the indexed rows, and
// the per-query state that turns its integer scores into intervals around
// the exact float32 scores. The flat scan prunes with those intervals and
// stays exact (scan.prune has the bound and its proof).
package knn

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"sisg/internal/vecmath"
)

// The range of magnitudes the pruning bound is proven for. Its float32
// rounding term assumes every product x·q of the exact kernel rounds
// relatively, which holds while no product underflows or overflows: row
// scales and the query's largest element must both lie in [minMag, maxMag]
// (then |x·q| is between 2^-128 times a rounding unit the bound has to
// spare and 2^87). A row outside it gets a NaN scale — never pruned,
// always scored exactly — and a query outside it takes the float scan.
// Trained embeddings sit some sixty binary orders of magnitude inside.
const (
	minMag = 0x1p-64
	maxMag = 0x1p40
)

// quantMirror is the int8 mirror of an index's rows: vecmath.QuantizeRow
// codes in vecmath's block layout, with each row's code sum, and per-row
// scales. A NaN scale marks a row the pruning bound does not cover
// (non-finite, or outside [minMag, maxMag]). Sums and scales run on to the
// end of the last block, zero past the last row.
type quantMirror struct {
	dim    int
	codes  []int8    // blocks of vecmath.BlockRows rows
	sums   []int32   // per row, the sum of its codes
	scales []float32 // per row
}

func newQuantMirror(rows, dim int) *quantMirror {
	blocks := (rows + vecmath.BlockRows - 1) / vecmath.BlockRows
	return &quantMirror{
		dim:    dim,
		codes:  make([]int8, blocks*vecmath.BlockLen(dim)),
		sums:   make([]int32, blocks*vecmath.BlockRows),
		scales: make([]float32, blocks*vecmath.BlockRows),
	}
}

// fill quantises row r, through tmp (len(row) codes of scratch).
func (m *quantMirror) fill(r int, row []float32, tmp []int8) {
	s, nan := vecmath.QuantizeRowNaN(tmp, row)
	if nan || !(s == 0 || (s >= minMag && s <= maxMag)) {
		s = float32(math.NaN())
	}
	bl := vecmath.BlockLen(m.dim)
	b := r / vecmath.BlockRows
	m.sums[r] = vecmath.PutBlockRow(m.codes[b*bl:(b+1)*bl], r%vecmath.BlockRows, tmp)
	m.scales[r] = s
}

// tile returns the codes, sums and scales of the n rows from row lo on, lo
// being the first row of a block: the slices DotRowsI8Mask reads, which
// run on to the end of the last block.
func (m *quantMirror) tile(lo, n int) ([]int8, []int32, []float32) {
	hi := (lo + n + vecmath.BlockRows - 1) / vecmath.BlockRows * vecmath.BlockRows
	bl := vecmath.BlockLen(m.dim) / vecmath.BlockRows
	return m.codes[lo*bl : hi*bl], m.sums[lo:hi], m.scales[lo:hi]
}

// BuildQuantized builds the index's int8 mirror now, on every CPU, instead
// of under the first flat query — what a publisher calls before handing
// the index to readers. BuildIVF fills the same mirror in its own pass over
// the rows, so a publisher that builds the IVF layer has nothing left to do
// here. A no-op once the mirror exists.
func (ix *Index) BuildQuantized() { ix.quantized() }

// QuantizedReady reports whether the int8 mirror exists, i.e. whether a
// flat query on this index would run without building anything.
func (ix *Index) QuantizedReady() bool { return ix.mirror.Load() != nil }

// quantized returns the int8 mirror, building it on first use unless
// BuildQuantized or BuildIVF already did. Quantisation is per-row pure, so
// the parallel pass and BuildIVF's produce the same mirror.
func (ix *Index) quantized() *quantMirror {
	ix.mirrorOnce.Do(func() {
		dim := ix.mat.Dim
		data := ix.mat.Data()
		m := newQuantMirror(ix.rows, dim)
		eachRowBlock(ix.rows, runtime.GOMAXPROCS(0), func(lo, hi int) {
			tmp := make([]int8, dim)
			for r := lo; r < hi; r++ {
				m.fill(r, data[r*dim:(r+1)*dim], tmp)
			}
		})
		ix.mirror.Store(m)
	})
	return ix.mirror.Load()
}

// eachRowBlock calls work(lo, hi) for every block of up to blockRows rows
// of [0, rows), on at most workers goroutines (at least one), and returns
// when all of them have.
func eachRowBlock(rows, workers int, work func(lo, hi int)) {
	blocks := (rows + blockRows - 1) / blockRows
	workers = max(1, min(workers, blocks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := int(next.Add(1)) - 1; b < blocks; b = int(next.Add(1)) - 1 {
				work(b*blockRows, min(rows, (b+1)*blockRows))
			}
		}()
	}
	wg.Wait()
}

// scratch is what one worker needs to run one call: the tile buffers and
// one scan state per query. Pooled, so that a query at steady state
// allocates its result and nothing that grows with the rows.
type scratch struct {
	dots   [blockRows]int32       // integer scores of one tile
	mask   [blockRows / 64]uint64 // the tile's candidate bits, 64 rows a word
	scores [blockRows]float32     // float scores of one tile, or of one re-ranked chunk
	qs     []scan
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// begin readies one scan state per query.
func (sc *scratch) begin(qs [][]float32, opts Options) {
	if cap(sc.qs) < len(qs) {
		sc.qs = append(sc.qs[:cap(sc.qs)], make([]scan, len(qs)-cap(sc.qs))...)
	}
	sc.qs = sc.qs[:len(qs)]
	for qi, q := range qs {
		sc.qs[qi].begin(q, opts.Normalize)
	}
}

// free returns the scratch to the pool, without the callers' query slices:
// a pooled scratch must not keep a retired generation's matrix reachable.
func (sc *scratch) free() {
	for qi := range sc.qs {
		sc.qs[qi].q = nil
	}
	scratchPool.Put(sc)
}

// scan is one query's state on one worker: the query in both its forms,
// and what the worker has learned about its top-K so far.
type scan struct {
	q   []float32 // the query as scored: the caller's slice, or own
	own []float32 // backing of the normalised copy

	// The int8-first form, valid when bounded: q ≈ t·u element-wise, and a
	// row of scale s scores within s·(t·D ± b) of its exact float32 score,
	// D being its integer dot product with u. See prune.
	bounded bool
	u       vecmath.QueryI16
	t, b    float64

	floor float64   // τ: the K-th largest lower bound seen, -Inf before K rows have one
	los   []float64 // min-heap of the K largest lower bounds; its root is floor once full
	ids   []int32   // candidates: rows not pruned when they were seen, ascending
	ups   []float64 // their upper bounds
	top   minHeap   // the exact top-K of the rows scored so far
	seen  int       // candidates visited by the current re-rank stage
}

// begin resets the state for query q, scored as is or L2-normalised (on a
// private copy: the caller's slice is never written).
func (st *scan) begin(q []float32, normalize bool) {
	st.q = q
	if normalize {
		st.own = append(st.own[:0], q...)
		vecmath.Normalize(st.own)
		st.q = st.own
	}
	var l1 float64
	var peak float32
	for _, v := range st.q {
		if v < 0 {
			v = -v
		}
		l1 += float64(v)
		if v > peak {
			peak = v
		}
	}
	// l1 is NaN or +Inf exactly when some element is.
	st.bounded = l1 == 0 || (l1 < math.Inf(1) && peak >= minMag && peak <= maxMag)
	if st.bounded {
		dim := float64(len(st.q))
		st.t = st.u.Quantize(st.q)
		st.b = (l1*(0.5+254*dim*0x1p-23) + st.t*127*dim/2) * (1 + 0x1p-20)
	}
	st.floor = math.Inf(-1)
	st.los, st.ids, st.ups, st.top, st.seen = st.los[:0], st.ids[:0], st.ups[:0], st.top[:0], 0
}

// prune is the int8-first step of the exact scan over one tile: rows base,
// base+1, …, with their codes, sums and scales (quantMirror.tile). It keeps as candidates only the
// rows that can still be in the top-K.
//
// The bound. A row x is stored as codes c and a scale s with
// |x_i - s·c_i| <= s/2, the query as u and a step t with |q_i - t·u_i| <=
// t/2, and D = Σ c_i·u_i is exact. Expanding x·q around s·t·D:
//
//	|x·q - s·t·D| <= s/2·‖q‖₁ + s·127·dim·t/2,
//
// and the float32 kernel's score is within 127·s·‖q‖₁·(dim+1)·2^-24 of
// x·q (each of its at most dim+1 roundings per term is relative, see
// minMag; |x_i| <= 127·s). So with
//
//	b = ‖q‖₁·(1/2 + 254·dim·2^-23) + t·127·dim/2,
//
// which charges the rounding term four times over and is then inflated by
// 2^-20 for the float64 arithmetic here and the last-bit slack of both
// quantisers, the exact score of the row lies in [lo, up] = s·(t·D ∓ b)
// (vecmath.ScoreInterval). A zero row has s = 0 and scores exactly 0:
// lo = up = 0. A NaN scale makes both NaN, and every comparison below then
// keeps the row.
//
// The rules. τ is the K-th largest lo among the non-skipped rows seen so
// far by this worker, all of which have smaller ids than the row at hand.
// (1) During the scan a row with up <= τ is dropped: K earlier rows score
// at least τ, hence at least as much as it does, and win any tie on id.
// (2) After the scan, survivors drops candidates with up < τ_final: K rows
// score strictly more. Neither rule can drop a member of the top-K of the
// rows this worker saw, under (score desc, id asc); the candidates that
// remain are scored by the float32 kernel and selected under that order,
// so the result is the full float scan's. Rule (1) being non-strict is
// what keeps a corpus with many equal rows (the served model's all-zero
// output rows tie at 0 by the thousand) from re-ranking every one of them.
//
// Where rule (1) runs. vecmath.DotRowsI8Mask scores the tile and, in the
// same pass, flags the rows with !(up <= τ) for τ as it stood when the tile
// began; only flagged rows reach the loop below, which re-tests each
// against the current τ. τ only rises within a tile, so a row the kernel
// leaves out is one the loop would drop anyway: the candidates, their ups
// and τ are exactly those of applying rule (1) to every row in turn.
func (st *scan) prune(dots []int32, mask []uint64, codes []int8, sums []int32, scales []float32, base int32, k int, skip func(int32) bool) {
	t, b, tau := st.t, st.b, st.floor
	vecmath.DotRowsI8Mask(dots, mask, codes, sums, &st.u, scales, t, b, tau)
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			lo, up := vecmath.ScoreInterval(scales[i], dots[i], t, b)
			if up <= tau {
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
			case lo > tau: // tau is still -Inf: any finite lower bound counts
				st.los = heapPush(st.los, lo, lessFloat)
				if len(st.los) == k {
					tau = st.los[0]
				}
			}
		}
	}
	st.floor = tau
}

func lessFloat(a, b float64) bool { return a < b }

// survivors applies rule (2) of prune and returns the candidates left, in
// ascending order.
func (st *scan) survivors() []int32 {
	kept := st.ids[:0]
	for i, id := range st.ids {
		if st.ups[i] < st.floor {
			continue
		}
		kept = append(kept, id)
	}
	st.ids = kept
	return kept
}
