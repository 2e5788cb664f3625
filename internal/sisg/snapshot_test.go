package sisg

import (
	"context"
	"testing"

	"sisg/internal/corpus"
	"sisg/internal/knn"
)

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
		if v.Directed && !m.coldUserIndex().QuantizedReady() {
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
