// Package model defines the serving-side contract between trainers and the
// HTTP tier: a Snapshot is one immutable, generation-stamped view of the
// model — embeddings, vocabulary, retrieval index and SI composition in a
// single atomic value — and a Holder swaps snapshots RCU-style under live
// traffic.
//
// The paper's pipeline (§III) re-trains and re-publishes embeddings on a
// schedule; the streaming path in this repository publishes far more often.
// Either way the serving tier must never observe a half-updated model: a
// request pins the snapshot it starts on and keeps it for its whole
// lifetime, a publish swaps one pointer, and an old generation is released
// only when its last reader finishes. Readers never block publishers and
// publishers never block readers.
package model

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"sisg/internal/knn"
)

// ErrNotServable reports a query for an item the snapshot cannot retrieve
// yet — in streaming mode, an item the admission sketch has not admitted.
// The serving tier maps it to a client outcome (the cold-start path exists
// for exactly this case), never a server error.
var ErrNotServable = errors.New("model: item not servable in this snapshot")

// Snapshot is one immutable view of a servable model. Every method is safe
// for concurrent use and the view never changes: two calls against the same
// Snapshot are answered by the same embeddings, the same vocabulary and the
// same index, no matter how many generations were published in between.
type Snapshot interface {
	// Generation is the monotone publish stamp; each published snapshot's
	// generation is strictly greater than its predecessor's.
	Generation() uint64
	// PublishedAt is the wall time the snapshot was cut.
	PublishedAt() time.Time
	// Variant names the model variant being served (e.g. "SISG-F-U-D").
	Variant() string
	// Dim is the embedding dimension.
	Dim() int
	// VocabSize is the number of tokens (items + SI + user types) the
	// snapshot's embeddings cover.
	VocabSize() int
	// NumItems is how many catalog items the snapshot can retrieve.
	NumItems() int
	// Servable reports whether the item can be retrieved by Similar (it
	// has an embedding row in this snapshot).
	Servable(item int32) bool
	// Index exposes the retrieval index, for warm-up and measurement;
	// retrieval itself goes through Similar.
	Index() *knn.Index

	// Similar is the unified matching-stage read path: top-opts.K
	// candidates per seed, each seed's own id excluded, under the
	// variant's scoring rule. One seed runs a single scan; several seeds
	// ride the engine's batched scan. Normalize and Skip are owned by the
	// snapshot; Index and NProbe select the scan strategy. A seed
	// the snapshot cannot serve fails with ErrNotServable.
	Similar(ctx context.Context, seeds []int32, opts knn.Options) ([][]knn.Result, error)
	// SimilarToVector retrieves for an arbitrary query vector (the
	// cold-start paths compose their queries out-of-vocabulary).
	SimilarToVector(ctx context.Context, qv []float32, k int, skip func(int32) bool) ([]knn.Result, error)
	// ColdItemVector composes an Eq. 6 embedding for a catalog item from
	// its side information alone — the path that makes an item servable
	// before its first gradient step.
	ColdItemVector(item int32) ([]float32, error)
	// ColdItemVectorFromNames is ColdItemVector for an item the catalog
	// does not know, named by raw SI tokens.
	ColdItemVectorFromNames(names []string) ([]float32, error)
	// RecommendForColdUser is §IV-C1: average the matching user-type
	// vectors and retrieve the top-k items.
	RecommendForColdUser(ctx context.Context, types []int32, k int) ([]knn.Result, error)
}

// generation pairs a snapshot with its reference count. The count includes
// one reference owned by the Holder while the generation is current; it is
// dropped at the next Publish, so the generation retires exactly when its
// last in-flight reader finishes (or at the swap, if it had none).
type generation struct {
	snap Snapshot
	refs atomic.Int64
}

// Holder is the RCU-style publication point. Acquire pins the current
// snapshot in a handful of atomic operations and never blocks Publish;
// Publish swaps one pointer and never waits for readers. Publishing is
// single-writer: one goroutine (the trainer's ingest loop) calls Publish,
// any number call Acquire.
type Holder struct {
	cur atomic.Pointer[generation]

	gen     atomic.Uint64 // generation stamp of the current snapshot
	swaps   atomic.Uint64 // publishes that replaced a previous snapshot
	readers atomic.Int64  // snapshot references currently pinned by readers
	live    atomic.Int64  // generations published but not yet retired
	retired atomic.Uint64 // generations fully released

	// onRetire, when set (before traffic starts), observes each retired
	// snapshot; tests use it to prove old generations are released.
	onRetire func(Snapshot)
}

// NewHolder returns a holder serving first. A holder is never empty: the
// serving tier can always pin a snapshot, even mid-publish.
func NewHolder(first Snapshot) *Holder {
	if first == nil {
		panic("model: NewHolder(nil)")
	}
	h := &Holder{}
	g := &generation{snap: first}
	g.refs.Store(1)
	h.cur.Store(g)
	h.gen.Store(first.Generation())
	h.live.Store(1)
	return h
}

// SetOnRetire installs a retirement observer. Call before the holder sees
// concurrent traffic; the hook runs on whichever goroutine drops the last
// reference (a reader's or the publisher's).
func (h *Holder) SetOnRetire(fn func(Snapshot)) { h.onRetire = fn }

// Publish replaces the current snapshot. In-flight readers keep the
// generation they pinned; the old generation retires when its last reader
// releases it. Generations must be strictly increasing — a regression is a
// publisher bug and panics rather than serving time-travel.
func (h *Holder) Publish(s Snapshot) {
	if s == nil {
		panic("model: Publish(nil)")
	}
	if prev := h.gen.Load(); s.Generation() <= prev {
		panic("model: Publish generation not increasing")
	}
	g := &generation{snap: s}
	g.refs.Store(1) // the holder's own reference
	h.live.Add(1)
	h.gen.Store(s.Generation())
	old := h.cur.Swap(g)
	h.swaps.Add(1)
	h.release(old) // drop the holder's reference to the displaced snapshot
}

// Acquire pins the current snapshot and returns it with its release
// function. The release is idempotent and must be called exactly once per
// Acquire (defer it); the snapshot stays fully usable until then, however
// many publishes happen in between.
func (h *Holder) Acquire() (Snapshot, func()) {
	for {
		g := h.cur.Load()
		n := g.refs.Load()
		if n == 0 {
			// This generation was displaced and fully released between our
			// load and now; the pointer already points elsewhere. Retry.
			continue
		}
		// Increment-if-nonzero: a count that reached zero can never rise
		// again (nothing increments from zero), so a successful CAS proves
		// the generation was live for the whole exchange.
		if !g.refs.CompareAndSwap(n, n+1) {
			continue
		}
		h.readers.Add(1)
		var once sync.Once
		release := func() {
			once.Do(func() {
				h.readers.Add(-1)
				h.release(g)
			})
		}
		return g.snap, release
	}
}

func (h *Holder) release(g *generation) {
	if g.refs.Add(-1) == 0 {
		h.live.Add(-1)
		h.retired.Add(1)
		if h.onRetire != nil {
			h.onRetire(g.snap)
		}
	}
}

// Generation returns the stamp of the most recently published snapshot.
func (h *Holder) Generation() uint64 { return h.gen.Load() }

// Swaps returns how many times Publish replaced a previous snapshot.
func (h *Holder) Swaps() uint64 { return h.swaps.Load() }

// Readers returns how many snapshot references are currently pinned.
func (h *Holder) Readers() int64 { return h.readers.Load() }

// LiveGenerations returns how many published generations have not retired
// yet (1 on a quiescent holder: the current one).
func (h *Holder) LiveGenerations() int64 { return h.live.Load() }

// Retired returns how many generations have been fully released.
func (h *Holder) Retired() uint64 { return h.retired.Load() }
