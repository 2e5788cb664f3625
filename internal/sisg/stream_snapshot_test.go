package sisg

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"sisg/internal/corpus"
	"sisg/internal/knn"
	"sisg/internal/model"
	"sisg/internal/sgns"
	"sisg/internal/vocab"
)

// A three-generation replay, pinned to the sum recorded before the pair
// loop pre-sampled its negatives and before the snapshot copied each live
// row once: the live matrices after every publish, and every score of an
// exhaustive flat answer served by each generation. Holds under -tags
// purego too.
func TestStreamerReplayBytePinned(t *testing.T) {
	lv, st := testStreamer(t)
	h := fnv.New64a()
	var b [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	for g := 0; g < 3; g++ {
		for i := 0; i < 150; i++ {
			st.Ingest(lv.Next())
		}
		snap := st.Publish()
		m, n := st.live.Model(), st.live.Rows()*st.live.Model().Dim()
		for _, v := range m.In.Data()[:n] {
			put(math.Float32bits(v))
		}
		for _, v := range m.Out.Data()[:n] {
			put(math.Float32bits(v))
		}
		rs, err := snap.Similar(context.Background(), []int32{snap.items[0]}, knn.Options{K: snap.NumItems()})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs[0] {
			put(uint32(r.ID))
			put(math.Float32bits(r.Score))
		}
	}
	if got, want := h.Sum64(), uint64(0x6136c1a1c3af1d0e); got != want {
		t.Errorf("3-generation replay sum %#x, want %#x", got, want)
	}
}

// BenchmarkStreamerPublish is the publish half of a streaming round at the
// repository benchmark's scale: a directed SISG-F-U-D streamer of dim 64
// over the 25k-item live corpus, ingested until 24k rows are live. One
// iteration is one Publish (the first one, cold, is outside the timer).
func BenchmarkStreamerPublish(b *testing.B) {
	lv, err := corpus.NewLive(corpus.LiveConfig{
		Base: corpus.Sim25K(), ReserveItems: 2000, LaunchEvery: 10, DriftEvery: 5000,
	})
	if err != nil {
		b.Fatal(err)
	}
	live := sgns.LiveDefaults(0)
	live.Dim = 64
	st, err := NewStreamer(lv.Dict, StreamConfig{
		Variant: VariantSISGFUD,
		Admit:   vocab.AdmitConfig{Budget: lv.Dict.Len(), MinCount: 1},
		Live:    live,
	})
	if err != nil {
		b.Fatal(err)
	}
	for st.Admitted() < 24000 && st.Sessions() < 20000 {
		st.Ingest(lv.Next())
	}
	st.Publish()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Publish()
	}
	b.ReportMetric(float64(st.Admitted()), "rows")
}

// The dense tables answer "not servable" for every id they do not hold —
// below zero, beyond the catalog, beyond the dictionary, or simply not
// admitted yet — and never index out of range.
func TestStreamSnapshotRejectsUnknownIDs(t *testing.T) {
	lv, st := testStreamer(t)
	for i := 0; i < 60; i++ {
		st.Ingest(lv.Next())
	}
	snap := st.Publish()
	bg := context.Background()
	notYet := int32(-1)
	for it := int32(0); int(it) < lv.Dict.NumItems; it++ {
		if _, ok := st.adm.Row(it); !ok {
			notYet = it
			break
		}
	}
	if notYet < 0 {
		t.Fatal("60 sessions admitted the whole catalog")
	}
	for _, id := range []int32{-1, math.MinInt32, notYet, int32(lv.Dict.NumItems), int32(lv.Dict.Len()), math.MaxInt32} {
		if snap.Servable(id) {
			t.Errorf("Servable(%d) = true", id)
		}
		if _, err := snap.Similar(bg, []int32{id}, knn.Options{K: 3}); !errors.Is(err, model.ErrNotServable) {
			t.Errorf("Similar(%d): %v, want ErrNotServable", id, err)
		}
		if _, err := snap.Similar(bg, []int32{snap.items[0], id}, knn.Options{K: 3}); !errors.Is(err, model.ErrNotServable) {
			t.Errorf("batch Similar with %d: %v, want ErrNotServable", id, err)
		}
	}
	for _, id := range []int32{-1, int32(lv.Dict.NumItems), math.MaxInt32} {
		if _, err := snap.ColdItemVector(id); err == nil {
			t.Errorf("ColdItemVector(%d) composed a vector", id)
		}
	}
	// An item the stream has not admitted is still composable from its SI.
	if _, err := snap.ColdItemVector(notYet); err != nil {
		t.Errorf("ColdItemVector of a not-yet-admitted item: %v", err)
	}
	if _, err := snap.ColdItemVectorFromNames([]string{"no_such_column_value", ""}); err == nil {
		t.Error("unknown SI names composed a vector")
	}
	if _, ok := snap.inputOf(vocab.ID(lv.Dict.Len())); ok {
		t.Error("inputOf beyond the dictionary resolved")
	}
}

// A published snapshot shares its item list with the streamer and holds
// copies of everything else. Readers that keep querying it while the
// streamer ingests 2 000 more sessions — admitting new items, publishing
// new generations over the same shared list — must see the same answers,
// sizes and servability throughout. Meant for -race: a write into anything
// the snapshot can reach is a report.
func TestPublishedSnapshotNeverChanges(t *testing.T) {
	lv, st := testStreamer(t)
	for i := 0; i < 300; i++ {
		st.Ingest(lv.Next())
	}
	snap := st.Publish()
	bg := context.Background()
	types := lv.Pop.TypesMatching(0, -1, -1)
	type answers struct {
		vocab, items int
		similar      [][]knn.Result
		cold         []float32
		user         []knn.Result
	}
	read := func() (a answers, err error) {
		a.vocab, a.items = snap.VocabSize(), snap.NumItems()
		seeds := []int32{snap.items[0], snap.items[a.items/2], snap.items[a.items-1]}
		if a.similar, err = snap.Similar(bg, seeds, knn.Options{K: 8}); err != nil {
			return a, err
		}
		ivf, err := snap.Similar(bg, seeds[2:], knn.Options{K: 8, Index: knn.IndexIVF})
		if err != nil {
			return a, err
		}
		a.similar = append(a.similar, ivf[0])
		if a.cold, err = snap.ColdItemVector(seeds[1]); err != nil {
			return a, err
		}
		a.user, err = snap.RecommendForColdUser(bg, types, 8)
		return a, err
	}
	want, err := read()
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if got, err := read(); err != nil || !reflect.DeepEqual(got, want) {
				done <- fmt.Errorf("snapshot answers changed under ingest (err %v)", err)
				return
			}
		}
	}()
	items0, rows0 := len(st.items), st.Admitted()
	for i := 0; i < 2000; i++ {
		st.Ingest(lv.Next())
		if i%500 == 499 {
			st.Publish()
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(st.items) == items0 || st.Admitted() == rows0 {
		t.Fatalf("2000 sessions admitted no new item (%d items, %d rows): nothing was appended beside the snapshot", len(st.items), st.Admitted())
	}
	for _, it := range st.items[items0:] {
		if snap.Servable(it) {
			t.Fatalf("item %d, admitted after the publish, is servable from the old snapshot", it)
		}
	}
	if got, err := read(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot answers changed after ingest (err %v)", err)
	}
}
