package knn

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sisg/internal/emb"
	"sisg/internal/rng"
)

// countdownCtx is a context whose Err flips to context.Canceled after n
// calls. It makes cancellation tests deterministic: "cancelled after the
// engine's 5th check" is a reproducible program point, where a timer or a
// goroutine calling cancel() is a race against the scan.
type countdownCtx struct {
	calls atomic.Int64
	n     int64
}

func (c *countdownCtx) Deadline() (time.Time, bool)       { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}             { return nil }
func (c *countdownCtx) Value(key interface{}) interface{} { return nil }
func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

func cancelTestIndex(t *testing.T, rows, dim, shards int) (*Index, [][]float32) {
	t.Helper()
	r := rng.New(77)
	m := emb.NewMatrix(rows, dim)
	data := m.Data()
	for i := range data {
		data[i] = float32(r.NormFloat64())
	}
	qs := make([][]float32, 4)
	for i := range qs {
		q := make([]float32, dim)
		for j := range q {
			q[j] = float32(r.NormFloat64())
		}
		qs[i] = q
	}
	return NewIndexSharded(m, 0, false, shards), qs
}

// A context cancelled mid-scan stops the scan at the next tile check: the
// tiles-scanned delta equals the number of checks that passed, never the
// full scan — cancellation provably stops work, it does not merely change
// the error a completed scan returns.
func TestQueryCancelMidScanStopsScanning(t *testing.T) {
	const rows, dim = 4096, 16 // 16 tiles of 256 rows
	ix, qs := cancelTestIndex(t, rows, dim, 1)
	fullTiles := uint64((rows + blockRows - 1) / blockRows)

	// Serial scan, cancelled after 5 checks: one entry check in Query plus
	// one check per tile means exactly 4 tiles get scanned.
	ctx := &countdownCtx{n: 5}
	before := ix.TilesScanned()
	recs, err := ix.Query(ctx, qs[0], Options{K: 10, Parallelism: 1})
	delta := ix.TilesScanned() - before
	if recs != nil {
		t.Fatalf("cancelled query returned results: %v", recs)
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v should wrap both ErrCanceled and context.Canceled", err)
	}
	if want := uint64(4); delta != want {
		t.Fatalf("scanned %d tiles after cancellation at check 6, want exactly %d", delta, want)
	}
	if delta >= fullTiles {
		t.Fatalf("cancelled scan did all %d tiles", fullTiles)
	}
}

// A context cancelled before the call scans nothing at all, at every
// parallelism and for both strategies.
func TestQueryPreCancelledScansNothing(t *testing.T) {
	ix, qs := cancelTestIndex(t, 4096, 16, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []Options{
		{K: 10},
		{K: 10, Parallelism: 4},
		{K: 10, Index: IndexIVF},
	} {
		before := ix.TilesScanned()
		if _, err := ix.Query(ctx, qs[0], opts); !errors.Is(err, ErrCanceled) {
			t.Fatalf("opts %+v: err = %v, want ErrCanceled", opts, err)
		}
		if d := ix.TilesScanned() - before; d != 0 {
			t.Fatalf("opts %+v: pre-cancelled query scanned %d tiles", opts, d)
		}
		before = ix.TilesScanned()
		if _, err := ix.QueryBatch(ctx, qs, opts); !errors.Is(err, ErrCanceled) {
			t.Fatalf("opts %+v: batch err = %v, want ErrCanceled", opts, err)
		}
		if d := ix.TilesScanned() - before; d != 0 {
			t.Fatalf("opts %+v: pre-cancelled batch scanned %d tiles", opts, d)
		}
	}
}

// Parallel and batch scans also stop: with a countdown context the total
// tile work is bounded by the number of checks that returned nil (each
// check admits at most one tile of work, or one batch-block of len(qs)
// tile units), far below a full scan.
func TestQueryCancelBoundsParallelAndBatchWork(t *testing.T) {
	const rows, dim = 8192, 16
	ix, qs := cancelTestIndex(t, rows, dim, 4)
	fullTiles := uint64((rows + blockRows - 1) / blockRows)

	const n = 6
	ctx := &countdownCtx{n: n}
	before := ix.TilesScanned()
	_, err := ix.Query(ctx, qs[0], Options{K: 10, Parallelism: 4})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if d := ix.TilesScanned() - before; d > n {
		t.Fatalf("parallel query scanned %d tiles after %d passed checks", d, n)
	}

	ctx = &countdownCtx{n: n}
	before = ix.TilesScanned()
	_, err = ix.QueryBatch(ctx, qs, Options{K: 10, Parallelism: 4})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("batch err = %v, want ErrCanceled", err)
	}
	if d := ix.TilesScanned() - before; d > n*uint64(len(qs)) {
		t.Fatalf("batch scanned %d tile units after %d passed checks", d, n)
	}
	_ = fullTiles
}

// The flip side of the cancellation contract: a *cancellable* context that
// never fires changes nothing — results stay bit-identical to the serial
// reference at every parallelism, for flat and exhaustive IVF alike.
func TestUncancelledQueryBitIdenticalToReference(t *testing.T) {
	const rows, dim = 3000, 24
	ix, qs := cancelTestIndex(t, rows, dim, 3)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, q := range qs {
		want := referenceScan(ix.mat, rows, q, Options{K: 25})
		for _, par := range []int{1, 2, 8} {
			got, err := ix.Query(ctx, q, Options{K: 25, Parallelism: par})
			if err != nil {
				t.Fatalf("parallelism %d: %v", par, err)
			}
			sameResults(t, "flat uncancelled", got, want)

			ivf, err := ix.Query(ctx, q, Options{K: 25, Parallelism: par, Index: IndexIVF, NProbe: ix.IVFClusters()})
			if err != nil {
				t.Fatalf("ivf parallelism %d: %v", par, err)
			}
			sameResults(t, "ivf exhaustive uncancelled", ivf, want)
		}
	}
	batch, err := ix.QueryBatch(ctx, qs, Options{K: 25, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		sameResults(t, "batch uncancelled", batch[i], referenceScan(ix.mat, rows, q, Options{K: 25}))
	}
}
