package model

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sisg/internal/knn"
)

// stub is a minimal Snapshot whose retrieval answers encode its generation,
// so readers can prove which model answered them.
type stub struct {
	gen uint64
	at  time.Time
}

func (s *stub) Generation() uint64     { return s.gen }
func (s *stub) PublishedAt() time.Time { return s.at }
func (s *stub) Variant() string        { return "stub" }
func (s *stub) Dim() int               { return 1 }
func (s *stub) VocabSize() int         { return 1 }
func (s *stub) NumItems() int          { return 1 }
func (s *stub) Servable(int32) bool    { return true }
func (s *stub) Index() *knn.Index      { return nil }
func (s *stub) Similar(_ context.Context, seeds []int32, opts knn.Options) ([][]knn.Result, error) {
	out := make([][]knn.Result, len(seeds))
	for i := range seeds {
		out[i] = []knn.Result{{ID: 0, Score: float32(s.gen)}}
	}
	return out, nil
}
func (s *stub) SimilarToVector(context.Context, []float32, int, func(int32) bool) ([]knn.Result, error) {
	return nil, nil
}
func (s *stub) ColdItemVector(int32) ([]float32, error)             { return nil, nil }
func (s *stub) ColdItemVectorFromNames([]string) ([]float32, error) { return nil, nil }
func (s *stub) RecommendForColdUser(context.Context, []int32, int) ([]knn.Result, error) {
	return nil, nil
}

func TestHolderPinsAcrossPublish(t *testing.T) {
	h := NewHolder(&stub{gen: 1})
	snap, release := h.Acquire()
	if snap.Generation() != 1 {
		t.Fatalf("acquired generation %d, want 1", snap.Generation())
	}
	h.Publish(&stub{gen: 2})
	// The pinned snapshot must be unchanged and still usable.
	if snap.Generation() != 1 {
		t.Fatalf("pinned snapshot changed generation to %d", snap.Generation())
	}
	if h.Generation() != 2 {
		t.Fatalf("holder generation %d, want 2", h.Generation())
	}
	if got := h.LiveGenerations(); got != 2 {
		t.Fatalf("live generations %d, want 2 (one pinned, one current)", got)
	}
	release()
	if got := h.LiveGenerations(); got != 1 {
		t.Fatalf("live generations after release %d, want 1", got)
	}
	if got := h.Retired(); got != 1 {
		t.Fatalf("retired %d, want 1", got)
	}
	// Release is idempotent.
	release()
	if got := h.Retired(); got != 1 {
		t.Fatalf("retired after double release %d, want 1", got)
	}
}

// Generation is read while Publish runs — what the model_generation gauge
// does beside a streamer. Reads never go down and the last one names the
// last publish. Under -race this also fails if Generation stops loading the
// stamp atomically.
func TestHolderGenerationReadBesidePublish(t *testing.T) {
	const gens = 2000
	h := NewHolder(&stub{gen: 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for g := uint64(2); g <= gens; g++ {
			h.Publish(&stub{gen: g})
		}
	}()
	for last, running := uint64(1), true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		g := h.Generation()
		if g < last {
			t.Fatalf("Generation went from %d to %d", last, g)
		}
		last = g
	}
	if g := h.Generation(); g != gens {
		t.Fatalf("Generation = %d after the last publish, want %d", g, gens)
	}
}

func TestHolderRetiresDisplacedUnpinnedSnapshot(t *testing.T) {
	var retired []uint64
	h := NewHolder(&stub{gen: 1})
	h.SetOnRetire(func(s Snapshot) { retired = append(retired, s.Generation()) })
	h.Publish(&stub{gen: 2})
	h.Publish(&stub{gen: 3})
	if len(retired) != 2 || retired[0] != 1 || retired[1] != 2 {
		t.Fatalf("retired %v, want [1 2]", retired)
	}
	if h.Swaps() != 2 {
		t.Fatalf("swaps %d, want 2", h.Swaps())
	}
}

func TestHolderRejectsNonMonotonicGeneration(t *testing.T) {
	h := NewHolder(&stub{gen: 5})
	defer func() {
		if recover() == nil {
			t.Fatal("Publish with a stale generation did not panic")
		}
	}()
	h.Publish(&stub{gen: 5})
}

// TestHolderConcurrentAcquirePublish hammers Acquire from many goroutines
// while a publisher swaps snapshots as fast as it can. Every reader must
// see an internally consistent snapshot, and when the dust settles exactly
// one generation must remain live. Run with -race.
func TestHolderConcurrentAcquirePublish(t *testing.T) {
	const (
		readers   = 8
		publishes = 500
	)
	h := NewHolder(&stub{gen: 1})
	var retiredCount atomic.Uint64
	h.SetOnRetire(func(Snapshot) { retiredCount.Add(1) })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, release := h.Acquire()
				g := snap.Generation()
				rs, err := snap.Similar(context.Background(), []int32{0}, knn.Options{K: 1})
				if err != nil || uint64(rs[0][0].Score) != g {
					t.Errorf("torn read: snapshot gen %d answered %v, %v", g, rs, err)
					release()
					return
				}
				release()
			}
		}()
	}
	for g := uint64(2); g < 2+publishes; g++ {
		h.Publish(&stub{gen: g})
	}
	close(stop)
	wg.Wait()

	if got := h.LiveGenerations(); got != 1 {
		t.Fatalf("live generations %d, want 1", got)
	}
	if got := retiredCount.Load(); got != publishes {
		t.Fatalf("retired %d generations, want %d", got, publishes)
	}
	if got := h.Readers(); got != 0 {
		t.Fatalf("readers %d, want 0", got)
	}
	if h.Generation() != 1+publishes {
		t.Fatalf("final generation %d, want %d", h.Generation(), 1+publishes)
	}
}
