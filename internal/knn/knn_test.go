package knn

import (
	"context"
	"sort"
	"testing"
	"testing/quick"

	"sisg/internal/emb"
	"sisg/internal/rng"
	"sisg/internal/vecmath"
)

func randomMatrix(rows, dim int, seed uint64) *emb.Matrix {
	m := emb.NewMatrix(rows, dim)
	r := rng.New(seed)
	for i := range m.Data() {
		m.Data()[i] = r.Float32()*2 - 1
	}
	return m
}

func bruteTopK(m *emb.Matrix, q []float32, k int, skip func(int32) bool) []Result {
	var all []Result
	for i := 0; i < m.Rows(); i++ {
		if skip != nil && skip(int32(i)) {
			continue
		}
		all = append(all, Result{ID: int32(i), Score: vecmath.Dot(q, m.Row(int32(i)))})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Score != all[b].Score {
			return all[a].Score > all[b].Score
		}
		return all[a].ID < all[b].ID
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func TestSearchMatchesBrute(t *testing.T) {
	m := randomMatrix(200, 8, 1)
	idx := NewIndex(m, 0, false)
	q := randomMatrix(1, 8, 2).Row(0)
	for _, k := range []int{1, 5, 50, 200, 500} {
		got, err := idx.Query(context.Background(), q, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteTopK(m, q, k, nil)
		if len(got) != len(want) {
			t.Fatalf("k=%d: len %d != %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("k=%d pos %d: %v != %v", k, i, got[i], want[i])
			}
		}
	}
}

func TestSearchSkip(t *testing.T) {
	m := randomMatrix(50, 4, 3)
	idx := NewIndex(m, 0, false)
	q := m.Row(7)
	got, err := idx.Query(context.Background(), q, Options{K: 10, Skip: func(id int32) bool { return id == 7 }})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID == 7 {
			t.Fatal("skipped ID returned")
		}
	}
}

func TestSearchProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		rows := 30 + int(seed%50)
		m := randomMatrix(rows, 6, seed)
		idx := NewIndex(m, 0, false)
		q := randomMatrix(1, 6, seed^0xabc).Row(0)
		k := int(kRaw%40) + 1
		got, err := idx.Query(context.Background(), q, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteTopK(m, q, k, nil)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedSearchIsCosine(t *testing.T) {
	m := randomMatrix(40, 5, 4)
	idx := NewIndex(m, 0, true)
	q := m.Row(11)
	got, err := idx.Query(context.Background(), q, Options{K: 1, Normalize: true, Skip: func(id int32) bool { return id == 11 }})
	if err != nil {
		t.Fatal(err)
	}
	// Brute force cosine.
	best, bestCos := int32(-1), float32(-2)
	for i := 0; i < m.Rows(); i++ {
		if i == 11 {
			continue
		}
		if c := vecmath.Cosine(q, m.Row(int32(i))); c > bestCos {
			best, bestCos = int32(i), c
		}
	}
	if got[0].ID != best {
		t.Fatalf("cosine top-1 %d, want %d", got[0].ID, best)
	}
}

func TestRowsBound(t *testing.T) {
	m := randomMatrix(100, 4, 5)
	idx := NewIndex(m, 30, false)
	if idx.rows != 30 {
		t.Fatalf("rows = %d", idx.rows)
	}
	got, err := idx.Query(context.Background(), m.Row(0), Options{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID >= 30 {
			t.Fatalf("returned row %d beyond bound", r.ID)
		}
	}
}

func TestKZeroAndNegative(t *testing.T) {
	m := randomMatrix(10, 4, 6)
	idx := NewIndex(m, 0, false)
	if got, _ := idx.Query(context.Background(), m.Row(0), Options{K: 0}); got != nil {
		t.Fatal("k=0 should return nil")
	}
	if got, _ := idx.Query(context.Background(), m.Row(0), Options{K: -5}); got != nil {
		t.Fatal("k<0 should return nil")
	}
}

func TestSearchBatch(t *testing.T) {
	m := randomMatrix(80, 6, 7)
	idx := NewIndex(m, 0, false)
	queries := make([][]float32, 9)
	for i := range queries {
		queries[i] = m.Row(int32(i))
	}
	got, err := idx.QueryBatch(context.Background(), queries, Options{K: 5, Skip: func(id int32) bool { return id < 0 }})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(queries) {
		t.Fatalf("batch returned %d results", len(got))
	}
	for qi, rs := range got {
		want, err := idx.Query(context.Background(), queries[qi], Options{K: 5, Skip: func(id int32) bool { return id < 0 }})
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != len(want) {
			t.Fatalf("query %d: len mismatch", qi)
		}
		for i := range rs {
			if rs[i].ID != want[i].ID {
				t.Fatalf("query %d pos %d: %d != %d", qi, i, rs[i].ID, want[i].ID)
			}
		}
	}
}

func BenchmarkSearch10k(b *testing.B) {
	m := randomMatrix(10000, 32, 1)
	idx := NewIndex(m, 0, false)
	q := m.Row(0)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Query(ctx, q, Options{K: 20})
	}
}
