package dist

import (
	"context"
	"testing"

	"sisg/internal/corpus"
	"sisg/internal/eval"
	"sisg/internal/knn"
	"sisg/internal/race"
	"sisg/internal/sgns"
	"sisg/internal/sisg"
)

// The benchmark's hr10 gates a one-worker sgns model, while dist at two
// workers trains other pairs' gradients one sequence late (a remote reply is
// applied after the next sequence's local pairs) against per-partition
// noise. That must not cost quality: on the benchmark's quality corpus
// (Sim5K under corpus seed 12, 6 000 sessions, SISG-F-U-D, dim 64, one
// epoch), dist.Train with two workers over the chan transport and the HBGP
// partition averages, over trainer seeds 1–4, at least 0.85 of the HR@10
// that sgns reaches at one worker.
func TestTwoWorkerDistQualityHoldsOneWorkerHR(t *testing.T) {
	if race.Enabled || testing.Short() {
		t.Skip("trains eight Sim5K models; runs in the no-race multi-worker step")
	}
	c := corpus.Sim25K()
	c.Name = "Sim5K"
	c.Seed = 12
	c.NumItems = 5_000
	c.NumLeafCats = 100
	c.NumShops = 400
	c.NumBrands = 150
	c.NumSessions = 6_000
	ds, err := corpus.Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	split := ds.SplitNextItem(0.1)
	v := sisg.VariantSISGFUD
	part, _, err := PartitionForDataset(ds, split.Train, 2)
	if err != nil {
		t.Fatal(err)
	}
	seqs := sisg.Enrich(ds.Dict, split.Train, v)
	hr := func(m *sisg.Model) float64 {
		rec := eval.RecommenderFunc(func(tc corpus.TestCase, n int) []knn.Result {
			rs, err := m.SimilarOne(context.Background(), tc.Query, knn.Options{K: n})
			if err != nil {
				t.Error(err)
			}
			return rs
		})
		return eval.Evaluate(v.Name, rec, split.Test, []int{10}).HR[10]
	}
	var sgnsHR, distHR float64
	for seed := uint64(1); seed <= 4; seed++ {
		base := sgns.Defaults()
		base.Dim = 64
		base.Epochs = 1
		base.Seed = seed
		base.Workers = 1
		m, err := sisg.Train(ds.Dict, split.Train, v, base)
		if err != nil {
			t.Fatal(err)
		}
		sgnsHR += hr(m) / 4

		opt := DefaultOptions(2)
		opt.Options = sisg.TrainOptions(base, v, base.Window)
		opt.Workers = 2 // TrainOptions replaced the embedded options wholesale
		opt.Transport = TransportChan
		emb, st, err := Train(ds.Dict.Dict, seqs, part, opt)
		if err != nil {
			t.Fatal(err)
		}
		if st.RemotePairs == 0 {
			t.Fatal("the two-worker run trained no remote pair; the gate proves nothing")
		}
		distHR += hr(&sisg.Model{Variant: v, Dict: ds.Dict, Emb: emb}) / 4
	}
	t.Logf("mean HR@10 over seeds 1-4: %.4f sgns at one worker, %.4f dist at two", sgnsHR, distHR)
	if distHR < 0.85*sgnsHR {
		t.Fatalf("two-worker dist mean HR@10 %.4f is below 0.85 × the one-worker sgns %.4f", distHR, sgnsHR)
	}
}
