package sisg

import (
	"context"
	"time"

	"sisg/internal/knn"
	"sisg/internal/model"
)

// ModelSnapshot adapts a batch-trained *Model to the model.Snapshot
// contract: one immutable generation the serving tier can pin. A batch
// deployment has exactly one generation until the next full retrain
// publishes a new snapshot over the same Holder.
type ModelSnapshot struct {
	m   *Model
	gen uint64
	at  time.Time
}

var _ model.Snapshot = (*ModelSnapshot)(nil)

// NewModelSnapshot wraps m as generation gen. Both retrieval indexes are
// built eagerly, each with the int8 mirror its flat scans read first: a
// snapshot must never mutate after publication, and no request should wait
// behind a build.
func NewModelSnapshot(m *Model, gen uint64) *ModelSnapshot {
	m.ItemIndex().BuildQuantized()
	if m.Variant.Directed {
		m.coldUserIndex().BuildQuantized()
	}
	return &ModelSnapshot{m: m, gen: gen, at: time.Now()}
}

func (s *ModelSnapshot) Generation() uint64     { return s.gen }
func (s *ModelSnapshot) PublishedAt() time.Time { return s.at }
func (s *ModelSnapshot) Variant() string        { return s.m.Variant.Name }
func (s *ModelSnapshot) Dim() int               { return s.m.Emb.Dim() }
func (s *ModelSnapshot) VocabSize() int         { return s.m.Dict.Len() }
func (s *ModelSnapshot) NumItems() int          { return s.m.Dict.NumItems }
func (s *ModelSnapshot) Index() *knn.Index      { return s.m.ItemIndex() }

func (s *ModelSnapshot) Servable(item int32) bool {
	return item >= 0 && int(item) < s.m.Dict.NumItems
}

func (s *ModelSnapshot) Similar(ctx context.Context, seeds []int32, opts knn.Options) ([][]knn.Result, error) {
	for _, seed := range seeds {
		if !s.Servable(seed) {
			return nil, model.ErrNotServable
		}
	}
	return s.m.Similar(ctx, seeds, opts)
}

func (s *ModelSnapshot) SimilarToVector(ctx context.Context, qv []float32, k int, skip func(int32) bool) ([]knn.Result, error) {
	return s.m.SimilarToVector(ctx, qv, k, skip)
}

func (s *ModelSnapshot) ColdItemVector(item int32) ([]float32, error) {
	if item < 0 || int(item) >= s.m.Dict.NumItems {
		return nil, model.ErrNotServable
	}
	return s.m.ColdStartItemVector(s.m.Dict.ItemSI[item]), nil
}

func (s *ModelSnapshot) ColdItemVectorFromNames(names []string) ([]float32, error) {
	return s.m.ColdStartItemVectorFromNames(names)
}

func (s *ModelSnapshot) RecommendForColdUser(ctx context.Context, types []int32, k int) ([]knn.Result, error) {
	return s.m.RecommendForColdUser(ctx, types, k)
}
