package sisg

import (
	"context"
	"testing"

	"sisg/internal/corpus"
	"sisg/internal/knn"
	"sisg/internal/sgns"
	"sisg/internal/vecmath"
	"sisg/internal/vocab"
)

func testStreamer(t *testing.T) (*corpus.Live, *Streamer) {
	t.Helper()
	lv, err := corpus.NewLive(corpus.LiveConfig{
		Base: corpus.Tiny(), ReserveItems: 30, LaunchEvery: 20, DriftEvery: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	live := sgns.LiveDefaults(0)
	live.Window = 3
	live.Seed = 5
	st, err := NewStreamer(lv.Dict, StreamConfig{
		Variant: VariantSISGFUD,
		Admit:   vocab.AdmitConfig{Budget: 2000, MinCount: 1},
		Live:    live,
	})
	if err != nil {
		t.Fatal(err)
	}
	return lv, st
}

func TestStreamerDeterministic(t *testing.T) {
	run := func() *Snapshot {
		lv, st := testStreamer(t)
		for i := 0; i < 300; i++ {
			st.Ingest(lv.Next())
		}
		return st.Publish()
	}
	a, b := run(), run()
	if a.VocabSize() != b.VocabSize() || a.NumItems() != b.NumItems() {
		t.Fatalf("vocab %d/%d items %d/%d diverge", a.VocabSize(), b.VocabSize(), a.NumItems(), b.NumItems())
	}
	ad, bd := a.in.Data(), b.in.Data()
	for i := range ad {
		if ad[i] != bd[i] {
			t.Fatalf("snapshot matrices diverge at %d", i)
		}
	}
}

func TestStreamerSnapshotServesAdmittedItems(t *testing.T) {
	lv, st := testStreamer(t)
	for i := 0; i < 400; i++ {
		st.Ingest(lv.Next())
	}
	snap := st.Publish()
	if snap.Generation() != 1 {
		t.Fatalf("generation %d, want 1", snap.Generation())
	}
	if snap.NumItems() == 0 || snap.VocabSize() == 0 {
		t.Fatal("empty snapshot after 400 sessions")
	}
	// Retrieve for some servable item and check candidate ids are catalog
	// item ids (not compact rows): every id must be servable and != seed.
	seed := snap.items[0]
	rs, err := snap.Similar(context.Background(), []int32{seed}, knn.Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs[0]) == 0 {
		t.Fatal("no candidates")
	}
	for _, r := range rs[0] {
		if r.ID == seed {
			t.Fatal("seed not excluded")
		}
		if !snap.Servable(r.ID) {
			t.Fatalf("candidate %d not servable", r.ID)
		}
	}
	// Batch path bit-identical to per-seed path.
	seeds := []int32{snap.items[0], snap.items[1], snap.items[2]}
	batch, err := snap.Similar(context.Background(), seeds, knn.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		one, err := snap.Similar(context.Background(), []int32{seed}, knn.Options{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(one[0]) {
			t.Fatalf("seed %d: batch %d results, single %d", seed, len(batch[i]), len(one[0]))
		}
		for j := range batch[i] {
			if batch[i][j] != one[0][j] {
				t.Fatalf("seed %d result %d: batch %+v vs single %+v", seed, j, batch[i][j], one[0][j])
			}
		}
	}
	// A snapshot is immutable: further ingest must not change it.
	before := append([]float32(nil), snap.itemIn.Row(0)...)
	for i := 0; i < 100; i++ {
		st.Ingest(lv.Next())
	}
	after := snap.itemIn.Row(0)
	for i := range after {
		if after[i] != before[i] {
			t.Fatal("published snapshot mutated by later ingest")
		}
	}
	if st.Publish().Generation() != 2 {
		t.Fatal("second publish not generation 2")
	}
}

// TestColdItemServableBeforeFirstGradientStep is the acceptance-criteria
// proof: a brand-new item admitted mid-stream is servable via Eq. 6
// composition BEFORE any gradient step has touched its rows. Admit and
// Train are the two halves of Ingest; after Admit alone the item must
// already carry the SI-composed embedding in the next snapshot.
func TestColdItemServableBeforeFirstGradientStep(t *testing.T) {
	lv, st := testStreamer(t)
	// Warm the stream so SI tokens have rows and item norms exist.
	for i := 0; i < 300; i++ {
		st.Ingest(lv.Next())
	}
	// Find a catalog item the admitter has never seen.
	var cold int32 = -1
	for it := int32(0); int(it) < lv.Dict.NumItems; it++ {
		if _, ok := st.adm.Row(it); !ok {
			cold = it
			break
		}
	}
	if cold < 0 {
		t.Skip("budget admitted the whole catalog; enlarge corpus")
	}
	// Admission only — no Train call, so no gradient step can have touched
	// the new row.
	st.Admit(corpus.Session{UserType: 0, Items: []int32{cold}})
	snap := st.Publish()
	if !snap.Servable(cold) {
		t.Fatal("cold item not servable after admission")
	}
	// Its input row must be exactly the Eq. 6 composition of its admitted
	// SI rows (scaled): collinear with the raw SI sum.
	si := make([]float32, snap.Dim())
	for _, sid := range lv.Dict.ItemSI[cold] {
		if in, ok := snap.inputOf(sid); ok {
			vecmath.Add(in, si)
		}
	}
	row, _ := snap.itemRow(cold)
	got := snap.itemIn.Row(row)
	cos := vecmath.Cosine(si, got)
	if cos < 0.999 {
		t.Fatalf("cold item's vector not the Eq. 6 composition: cosine %.4f", cos)
	}
	// And it is retrievable: a query FOR it succeeds.
	rs, err := snap.Similar(context.Background(), []int32{cold}, knn.Options{K: 5})
	if err != nil || len(rs[0]) == 0 {
		t.Fatalf("cold item not retrievable: %v (%d results)", err, len(rs[0]))
	}
}

func TestStreamSnapshotColdPaths(t *testing.T) {
	lv, st := testStreamer(t)
	for i := 0; i < 400; i++ {
		st.Ingest(lv.Next())
	}
	snap := st.Publish()
	// Cold item by catalog id.
	target := snap.items[len(snap.items)/2]
	qv, err := snap.ColdItemVector(target)
	if err != nil {
		t.Fatalf("ColdItemVector: %v", err)
	}
	rs, err := snap.SimilarToVector(context.Background(), qv, 5, func(id int32) bool { return id == target })
	if err != nil || len(rs) == 0 {
		t.Fatalf("SimilarToVector: %v (%d results)", err, len(rs))
	}
	for _, r := range rs {
		if r.ID == target {
			t.Fatal("skip not honoured")
		}
	}
	// Cold user via user types.
	types := lv.Pop.TypesMatching(0, -1, -1)
	if len(types) == 0 {
		t.Fatal("no user types")
	}
	urs, err := snap.RecommendForColdUser(context.Background(), types, 5)
	if err != nil {
		t.Fatalf("RecommendForColdUser: %v", err)
	}
	if len(urs) == 0 {
		t.Fatal("no cold-user recommendations")
	}
	// Unservable item errors cleanly.
	if _, err := snap.Similar(context.Background(), []int32{int32(lv.Dict.NumItems) - 1}, knn.Options{K: 5}); err == nil {
		// The last reserved item may legitimately have been admitted; only
		// assert when it is not servable.
		if !snap.Servable(int32(lv.Dict.NumItems) - 1) {
			t.Fatal("unservable seed did not error")
		}
	}
}

// No k-means under a request, ever: every published generation carries its
// IVF layer before the first query can reach it — across vocabulary growth
// that moves the cluster count, from the empty first generation on — the
// warm-started layer is a pure function of the stream (two replays answer
// identically), and it keeps IVF recall against the flat scan.
func TestStreamerPublishesBuiltIVF(t *testing.T) {
	const k = 10
	bg := context.Background()
	type answer struct {
		gen uint64
		rs  []knn.Result
	}
	replay := func() (answers []answer, clusters map[int]bool, recall float64) {
		lv, st := testStreamer(t)
		clusters = make(map[int]bool)
		var recallSum float64
		gens := 0
		publish := func() {
			snap := st.Publish()
			if !snap.Index().IVFReady() {
				t.Fatalf("generation %d (%d items) published without its IVF layer", snap.Generation(), snap.NumItems())
			}
			clusters[snap.Index().IVFClusters()] = true
			n := snap.NumItems()
			if n == 0 {
				return
			}
			hits, want := 0, 0
			for i := 0; i < n; i += n/16 + 1 {
				seed := []int32{snap.items[i]}
				flat, err := snap.Similar(bg, seed, knn.Options{K: k})
				if err != nil {
					t.Fatal(err)
				}
				ivf, err := snap.Similar(bg, seed, knn.Options{K: k, Index: knn.IndexIVF})
				if err != nil {
					t.Fatal(err)
				}
				answers = append(answers, answer{snap.Generation(), ivf[0]})
				in := make(map[int32]bool, len(flat[0]))
				for _, r := range flat[0] {
					in[r.ID] = true
				}
				want += len(flat[0])
				for _, r := range ivf[0] {
					if in[r.ID] {
						hits++
					}
				}
			}
			if want > 0 {
				recallSum += float64(hits) / float64(want)
				gens++
			}
		}
		publish() // nothing ingested: a 0-item generation
		st.Ingest(corpus.Session{UserType: 0, Items: []int32{3}})
		publish() // a 1-item generation
		for g := 0; g < 24; g++ {
			for i := 0; i < 15; i++ {
				st.Ingest(lv.Next())
			}
			publish()
		}
		return answers, clusters, recallSum / float64(gens)
	}
	a, clusters, recall := replay()
	b, _, _ := replay()
	if len(clusters) < 3 {
		t.Fatalf("cluster count took only %d values: vocabulary growth did not exercise a changing nlist", len(clusters))
	}
	if len(a) != len(b) {
		t.Fatalf("replays answered %d and %d IVF queries", len(a), len(b))
	}
	for i := range a {
		if len(a[i].rs) != len(b[i].rs) {
			t.Fatalf("generation %d: replays differ in length", a[i].gen)
		}
		for j := range a[i].rs {
			if a[i].rs[j] != b[i].rs[j] {
				t.Fatalf("generation %d: IVF answers differ between replays: %+v vs %+v", a[i].gen, a[i].rs[j], b[i].rs[j])
			}
		}
	}
	t.Logf("IVF recall@%d against flat, mean over generations: %.3f (%d cluster counts)", k, recall, len(clusters))
	if recall < 0.9 {
		t.Errorf("IVF recall@%d = %.3f averaged over generations, want >= 0.9", k, recall)
	}
}
