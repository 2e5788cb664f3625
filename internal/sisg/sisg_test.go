package sisg

import (
	"context"
	"math"
	"testing"

	"sisg/internal/corpus"
	"sisg/internal/knn"
	"sisg/internal/race"
	"sisg/internal/sgns"
	"sisg/internal/vecmath"
)

func tinyModel(t *testing.T, v Variant) (*corpus.Dataset, *Model) {
	t.Helper()
	ds, err := corpus.Generate(corpus.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	opt := sgns.Defaults()
	opt.Workers = race.Workers(0)
	opt.Epochs = 2
	opt.Dim = 16
	m, err := Train(ds.Dict, ds.Sessions, v, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ds, m
}

func TestVariantByName(t *testing.T) {
	for _, v := range Variants() {
		got, err := VariantByName(v.Name)
		if err != nil || got != v {
			t.Fatalf("VariantByName(%s) = %+v, %v", v.Name, got, err)
		}
	}
	if _, err := VariantByName("nope"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestEnrichLayout(t *testing.T) {
	ds, err := corpus.Generate(corpus.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	s := []corpus.Session{{UserType: 3, Items: []int32{5, 9}}}

	// SGNS: items only.
	plain := Enrich(ds.Dict, s, VariantSGNS)
	if len(plain) != 1 || len(plain[0]) != 2 || plain[0][0] != 5 || plain[0][1] != 9 {
		t.Fatalf("plain enrichment: %v", plain)
	}
	// F: every item followed by its 8 SI tokens (Eq. 4 order).
	f := Enrich(ds.Dict, s, VariantSISGF)[0]
	if len(f) != 2*(1+corpus.NumSIColumns) {
		t.Fatalf("F enrichment length %d", len(f))
	}
	if f[0] != 5 || f[9] != 9 {
		t.Fatalf("item positions wrong: %v", f)
	}
	for col := 0; col < corpus.NumSIColumns; col++ {
		if f[1+col] != ds.Dict.ItemSI[5][col] {
			t.Fatalf("SI col %d of item 5 wrong", col)
		}
		if f[10+col] != ds.Dict.ItemSI[9][col] {
			t.Fatalf("SI col %d of item 9 wrong", col)
		}
	}
	// U: single trailing user-type token.
	u := Enrich(ds.Dict, s, VariantSISGU)[0]
	if len(u) != 3 || u[2] != ds.Dict.UserType[3] {
		t.Fatalf("U enrichment: %v", u)
	}
	// F-U-D: SI plus trailing user type.
	fud := Enrich(ds.Dict, s, VariantSISGFUD)[0]
	if len(fud) != 2*(1+corpus.NumSIColumns)+1 {
		t.Fatalf("F-U-D enrichment length %d", len(fud))
	}
	if fud[len(fud)-1] != ds.Dict.UserType[3] {
		t.Fatal("user type not last")
	}
}

// The batch and the streaming trainer widen an item-unit window the same
// way for every variant.
func TestTrainOptions(t *testing.T) {
	base := sgns.Defaults()
	base.Window = 5
	live := sgns.LiveDefaults(0)
	live.Window = 5
	const stride = 1 + corpus.NumSIColumns
	for _, tc := range []struct {
		v              Variant
		window, stride int
		directed       bool
	}{
		{VariantSGNS, 5, 0, false},
		{VariantSISGF, 5 * stride, stride, false},
		{VariantSISGFUD, 5 * stride, stride, true},
	} {
		o := TrainOptions(base, tc.v, 5)
		if o.Window != tc.window || o.Stride != tc.stride || o.Directed != tc.directed {
			t.Errorf("%s batch options: window %d stride %d directed %v, want %d %d %v",
				tc.v.Name, o.Window, o.Stride, o.Directed, tc.window, tc.stride, tc.directed)
		}
		lo := liveOptions(StreamConfig{Variant: tc.v, Live: live}, 100)
		if lo.Window != tc.window || lo.Stride != tc.stride || lo.Directed != tc.directed || lo.Capacity != 100 {
			t.Errorf("%s stream options: window %d stride %d directed %v capacity %d, want %d %d %v 100",
				tc.v.Name, lo.Window, lo.Stride, lo.Directed, lo.Capacity, tc.window, tc.stride, tc.directed)
		}
	}
}

func TestSimilarItemsSane(t *testing.T) {
	ds, m := tinyModel(t, VariantSISGF)
	// Pick a frequent item; its top similar items should mostly share its
	// top-level category.
	query := int32(0)
	var best uint64
	for i := 0; i < ds.Dict.NumItems; i++ {
		if c := ds.Dict.Count(int32(i)); c > best {
			best, query = c, int32(i)
		}
	}
	recs, err := m.SimilarOne(context.Background(), query, knn.Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("got %d recs", len(recs))
	}
	same := 0
	for _, r := range recs {
		if r.ID == query {
			t.Fatal("query returned as its own neighbour")
		}
		if ds.Catalog.Items[r.ID].Top == ds.Catalog.Items[query].Top {
			same++
		}
	}
	if same < 5 {
		t.Fatalf("only %d/10 neighbours share the top category", same)
	}
	// Scores descending.
	for i := 1; i < len(recs); i++ {
		if recs[i].Score > recs[i-1].Score {
			t.Fatal("scores not sorted")
		}
	}
}

// The batched path (k+1 then drop-self) must be bit-identical to
// per-query Similar calls, under both scoring rules.
func TestSimilarBatchMatchesSingle(t *testing.T) {
	for _, v := range []Variant{VariantSISGF, VariantSISGFUD} {
		_, m := tinyModel(t, v)
		queries := []int32{0, 3, 7, 7, 11}
		batch, err := m.Similar(context.Background(), queries, knn.Options{K: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(queries) {
			t.Fatalf("%s: %d result sets for %d queries", v.Name, len(batch), len(queries))
		}
		for i, q := range queries {
			want, err := m.SimilarOne(context.Background(), q, knn.Options{K: 8})
			if err != nil {
				t.Fatal(err)
			}
			got := batch[i]
			if len(got) != len(want) {
				t.Fatalf("%s: query %d: %d results, want %d", v.Name, q, len(got), len(want))
			}
			for j := range got {
				if got[j].ID != want[j].ID ||
					math.Float32bits(got[j].Score) != math.Float32bits(want[j].Score) {
					t.Fatalf("%s: query %d pos %d: got {%d %x} want {%d %x}", v.Name, q, j,
						got[j].ID, math.Float32bits(got[j].Score),
						want[j].ID, math.Float32bits(want[j].Score))
				}
			}
		}
	}
}

func TestColdStartItemVector(t *testing.T) {
	ds, m := tinyModel(t, VariantSISGF)
	si := ds.Dict.ItemSI[3]
	v := m.ColdStartItemVector(si)
	want := make([]float32, m.Emb.Dim())
	for _, id := range si {
		vecmath.Add(m.Emb.In.Row(id), want)
	}
	for i := range v {
		if v[i] != want[i] {
			t.Fatal("Eq. 6 vector is not the SI sum")
		}
	}
}

func TestColdStartItemVectorFromNames(t *testing.T) {
	ds, m := tinyModel(t, VariantSISGF)
	it := ds.Catalog.Items[3]
	names := []string{
		corpus.SIToken(1, it.Leaf),
		corpus.SIToken(4, it.Brand),
		"not_a_real_token",
	}
	snap := NewModelSnapshot(m, 1)
	v, err := snap.ColdItemVectorFromNames(names)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float32, m.Emb.Dim())
	for _, n := range names[:2] {
		id, _ := ds.Dict.Lookup(n)
		vecmath.Add(m.Emb.In.Row(id), want)
	}
	for i := range v {
		if math.Float32bits(v[i]) != math.Float32bits(want[i]) {
			t.Fatal("Eq. 6 vector from names is not the sum of the resolved SI rows")
		}
	}
	if _, err := snap.ColdItemVectorFromNames([]string{"nope"}); err == nil {
		t.Fatal("all-unknown names accepted")
	}
}

// A symmetric cold user's query is the average of the matching user types'
// input vectors (§IV-C1), searched by cosine.
func TestColdStartUserVector(t *testing.T) {
	ds, m := tinyModel(t, VariantSISGFU)
	bg := context.Background()
	types := ds.Pop.TypesMatching(0, -1, -1)
	v := make([]float32, m.Emb.Dim())
	for _, ut := range types {
		vecmath.Add(m.UserTypeVector(ut), v)
	}
	vecmath.Scale(1/float32(len(types)), v)
	want, err := m.ItemIndex().Query(bg, v, knn.Options{K: 8, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.RecommendForColdUser(bg, types, 8)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "cold user", got, want)
	if _, err := m.RecommendForColdUser(bg, nil, 8); err == nil {
		t.Fatal("empty types accepted")
	}
}

func TestRecommendForColdUserBothScoringRules(t *testing.T) {
	for _, variant := range []Variant{VariantSISGFU, VariantSISGFUD} {
		ds, m := tinyModel(t, variant)
		types := ds.Pop.TypesMatching(1, -1, 2)
		recs, err := m.RecommendForColdUser(context.Background(), types, 8)
		if err != nil {
			t.Fatalf("%s: %v", variant.Name, err)
		}
		if len(recs) != 8 {
			t.Fatalf("%s: got %d recs", variant.Name, len(recs))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Score > recs[i-1].Score {
				t.Fatalf("%s: scores not sorted", variant.Name)
			}
		}
	}
}

func TestSeedColdItemsCalibration(t *testing.T) {
	ds, err := corpus.Generate(corpus.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	cold := ds.HoldoutItems(0.15)
	train := corpus.FilterSessions(ds.Sessions, cold)
	opt := sgns.Defaults()
	opt.Workers = race.Workers(0)
	opt.Dim = 16
	m, err := Train(ds.Dict, train, VariantSISGFUD, opt)
	if err != nil {
		t.Fatal(err)
	}
	m.SeedColdItems(cold)

	// Seeded rows must be non-zero and on the same scale as warm rows.
	var warmSum, coldSum float64
	var warmN, coldN int
	isCold := map[int32]bool{}
	for _, id := range cold {
		isCold[id] = true
	}
	for i := 0; i < ds.Dict.NumItems; i++ {
		n := float64(vecmath.Norm(m.Emb.Out.Row(int32(i))))
		if isCold[int32(i)] {
			coldSum += n
			coldN++
		} else {
			warmSum += n
			warmN++
		}
	}
	warmMean := warmSum / float64(warmN)
	coldMean := coldSum / float64(coldN)
	if coldMean == 0 {
		t.Fatal("seeded rows are zero")
	}
	if ratio := coldMean / warmMean; ratio > 3 || ratio < 0.2 {
		t.Fatalf("seeded/warm norm ratio %.2f badly calibrated", ratio)
	}

	// Cold items must now be retrievable and their recs category-coherent.
	id := cold[0]
	recs, err := m.SimilarOne(context.Background(), id, knn.Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("cold item has no recommendations")
	}
	same := 0
	for _, r := range recs {
		if ds.Catalog.Items[r.ID].Top == ds.Catalog.Items[id].Top {
			same++
		}
	}
	if same < 3 {
		t.Fatalf("cold item recs incoherent: %d/10 share top category", same)
	}
}

func TestDirectedModelUsesOutputIndex(t *testing.T) {
	ds, m := tinyModel(t, VariantSISGFUD)
	query := int32(1)
	recs, err := m.SimilarOne(context.Background(), query, knn.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no results")
	}
	// Directed scores are raw dot products of in(query) with out(c).
	for _, r := range recs {
		want := vecmath.Dot(m.Emb.In.Row(query), m.Emb.Out.Row(r.ID))
		if math.Abs(float64(want-r.Score)) > 1e-5 {
			t.Fatalf("directed score mismatch: %v vs %v", r.Score, want)
		}
	}
	_ = ds
}

func TestNilDictError(t *testing.T) {
	if _, err := Train(nil, nil, VariantSGNS, sgns.Defaults()); err == nil {
		t.Fatal("nil dict accepted")
	}
}
