package sisg

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"sisg/internal/corpus"
	"sisg/internal/knn"
	"sisg/internal/model"
	"sisg/internal/sgns"
	"sisg/internal/vocab"
)

func sameResults(t *testing.T, what string, got, want []knn.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for j := range got {
		if got[j].ID != want[j].ID || math.Float32bits(got[j].Score) != math.Float32bits(want[j].Score) {
			t.Fatalf("%s pos %d: got {%d %x} want {%d %x}", what, j,
				got[j].ID, math.Float32bits(got[j].Score), want[j].ID, math.Float32bits(want[j].Score))
		}
	}
}

func sameVector(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: dim %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %x, want %x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// gatheredTwin cuts a one-generation stream snapshot over m's trained rows
// through the stream's own admission and gather path: the sessions are
// admitted in Eq. 4 order — items interleaved with their SI and user types,
// in first-seen order, as a stream admits them — then every token they
// never mention, and every live row is overwritten with the model's row of
// the same token before the publish.
func gatheredTwin(t *testing.T, ds *corpus.Dataset, m *Model) *Snapshot {
	t.Helper()
	live := sgns.LiveDefaults(0)
	live.Dim = m.Emb.Dim()
	st, err := NewStreamer(ds.Dict, StreamConfig{
		Variant: m.Variant,
		Admit:   vocab.AdmitConfig{Budget: ds.Dict.Len(), MinCount: 1},
		Live:    live,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Sessions {
		st.Admit(s)
	}
	for tok := vocab.ID(0); int(tok) < ds.Dict.Len(); tok++ {
		st.observe(tok)
	}
	for tok := vocab.ID(0); int(tok) < ds.Dict.Len(); tok++ {
		row, ok := st.adm.Row(tok)
		if !ok {
			t.Fatalf("token %d not admitted", tok)
		}
		st.live.SetRow(row, m.Emb.In.Row(tok), m.Emb.Out.Row(tok))
	}
	return st.Publish()
}

// A batch model's snapshot (identity tables over views of its matrices)
// and a stream generation gathered from the same rows in admission order
// answer every read bit-identically: the id translation is the only
// difference between them, and it is exact.
func TestBatchAndGatheredSnapshotsAnswerIdentically(t *testing.T) {
	bg := context.Background()
	for _, v := range []Variant{VariantSISGFUD, VariantSISGFU} {
		ds, m := tinyModel(t, v)
		a, b := NewModelSnapshot(m, 1), gatheredTwin(t, ds, m)
		if slices.Equal(a.items, b.items) {
			t.Fatalf("%s: admission order is the catalog order; nothing was permuted", v.Name)
		}
		if a.VocabSize() != b.VocabSize() || a.NumItems() != b.NumItems() || a.Dim() != b.Dim() {
			t.Fatalf("%s: shapes differ: vocab %d/%d items %d/%d dim %d/%d", v.Name,
				a.VocabSize(), b.VocabSize(), a.NumItems(), b.NumItems(), a.Dim(), b.Dim())
		}
		var seeds []int32
		for it := 0; it < ds.Dict.NumItems; it += 37 {
			seeds = append(seeds, int32(it))
		}
		ivf := func(s *Snapshot) knn.Options {
			return knn.Options{K: 10, Index: knn.IndexIVF, NProbe: s.Index().IVFClusters()}
		}
		for _, seed := range seeds {
			one := []int32{seed}
			ra, err := a.Similar(bg, one, knn.Options{K: 10})
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.Similar(bg, one, knn.Options{K: 10})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, v.Name+" flat similar", rb[0], ra[0])
			if ra, err = a.Similar(bg, one, ivf(a)); err != nil {
				t.Fatal(err)
			}
			if rb, err = b.Similar(bg, one, ivf(b)); err != nil {
				t.Fatal(err)
			}
			sameResults(t, v.Name+" exhaustive ivf similar", rb[0], ra[0])

			qa, err := a.ColdItemVector(seed)
			if err != nil {
				t.Fatal(err)
			}
			qb, err := b.ColdItemVector(seed)
			if err != nil {
				t.Fatal(err)
			}
			sameVector(t, v.Name+" cold item vector", qb, qa)
			skip := func(id int32) bool { return id == seed || id%3 == 0 }
			va, err := a.SimilarToVector(bg, qa, 10, skip)
			if err != nil {
				t.Fatal(err)
			}
			vb, err := b.SimilarToVector(bg, qb, 10, skip)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, v.Name+" similar to vector", vb, va)
		}
		ba, err := a.Similar(bg, seeds, knn.Options{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.Similar(bg, seeds, knn.Options{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seeds {
			sameResults(t, v.Name+" batch similar", bb[i], ba[i])
		}

		it := ds.Catalog.Items[5]
		names := []string{corpus.SIToken(1, it.Leaf), corpus.SIToken(4, it.Brand), ds.Dict.Name(9), "no_such_token"}
		na, err := a.ColdItemVectorFromNames(names)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := b.ColdItemVectorFromNames(names)
		if err != nil {
			t.Fatal(err)
		}
		sameVector(t, v.Name+" cold item vector from names", nb, na)

		for _, types := range [][]int32{ds.Pop.TypesMatching(0, -1, -1), ds.Pop.TypesMatching(1, -1, 2)} {
			ua, err := a.RecommendForColdUser(bg, types, 10)
			if err != nil {
				t.Fatal(err)
			}
			ub, err := b.RecommendForColdUser(bg, types, 10)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, v.Name+" cold user", ub, ua)
		}
	}
}

// One index per model: every snapshot of a model, ItemIndex and the
// model's own read methods share it. A seed the model does not hold as an
// item — below zero, an SI token, beyond the dictionary — is not servable,
// never a panic or an SI vector's neighbours.
func TestModelSnapshotsShareOneIndex(t *testing.T) {
	bg := context.Background()
	for _, v := range []Variant{VariantSISGFUD, VariantSISGFU} {
		ds, m := tinyModel(t, v)
		snap := NewModelSnapshot(m, 1)
		if snap.Generation() != 1 || NewModelSnapshot(m, 2).Generation() != 2 {
			t.Fatalf("%s: snapshots not stamped with their generation", v.Name)
		}
		if snap.Index() != m.ItemIndex() || NewModelSnapshot(m, 2).Index() != m.ItemIndex() {
			t.Fatalf("%s: a snapshot built a second item index", v.Name)
		}
		if snap.userIndex != m.snapshot().userIndex || (snap.userIndex != nil) != v.Directed {
			t.Fatalf("%s: cold-user index not the model's one (directed %v)", v.Name, v.Directed)
		}
		for _, id := range []int32{-1, ds.Dict.ItemSI[0][0], int32(ds.Dict.Len())} {
			if _, err := m.SimilarOne(bg, id, knn.Options{K: 5}); !errors.Is(err, model.ErrNotServable) {
				t.Errorf("%s: SimilarOne(%d): %v, want ErrNotServable", v.Name, id, err)
			}
		}
	}
}

// No quantisation under a request: a batch snapshot builds the int8 mirror
// of each of its indexes when it is made, and a stream generation's index
// gets its mirror from the IVF pass of its publish — from the empty first
// generation on. The first flat query of either builds nothing.
func TestSnapshotsCarryTheirQuantizedMirror(t *testing.T) {
	for _, v := range []Variant{VariantSISGFUD, VariantSISGFU} {
		_, m := tinyModel(t, v)
		snap := NewModelSnapshot(m, 1)
		if !snap.Index().QuantizedReady() {
			t.Fatalf("%s: batch snapshot made without the int8 mirror of its index", v.Name)
		}
		if v.Directed && !snap.userIndex.QuantizedReady() {
			t.Fatalf("%s: batch snapshot made without the int8 mirror of its cold-user index", v.Name)
		}
		if _, err := snap.Similar(context.Background(), []int32{1}, knn.Options{K: 5}); err != nil {
			t.Fatal(err)
		}
	}

	lv, st := testStreamer(t)
	check := func() {
		snap := st.Publish()
		if !snap.Index().QuantizedReady() {
			t.Fatalf("generation %d (%d items) published without its int8 mirror", snap.Generation(), snap.NumItems())
		}
		if snap.NumItems() > 0 {
			if _, err := snap.Similar(context.Background(), snap.items[:1], knn.Options{K: 5}); err != nil {
				t.Fatal(err)
			}
		}
	}
	check() // nothing ingested: a 0-item generation
	st.Ingest(corpus.Session{UserType: 0, Items: []int32{3}})
	check()
	for g := 0; g < 5; g++ {
		for i := 0; i < 40; i++ {
			st.Ingest(lv.Next())
		}
		check()
	}
}
