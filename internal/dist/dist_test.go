package dist

import (
	"testing"
	"time"

	"sisg/internal/corpus"
	"sisg/internal/graph"
	"sisg/internal/sisg"
	"sisg/internal/vecmath"
)

func tinySetup(t *testing.T, workers int) (*corpus.Dataset, [][]int32, *graph.Partition) {
	t.Helper()
	cfg := corpus.Tiny()
	cfg.NumSessions = 900
	ds, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqs := sisg.Enrich(ds.Dict, ds.Sessions, sisg.VariantSISGFUD)
	part, _, err := PartitionForDataset(ds, ds.Sessions, workers)
	if err != nil {
		t.Fatal(err)
	}
	return ds, seqs, part
}

func tinyOptions(workers int) Options {
	opt := DefaultOptions(workers)
	opt.Options = sisg.TrainOptions(opt.Options, sisg.VariantSISGFUD, 3)
	opt.Epochs = 1
	opt.HotTopK = 64
	return opt
}

func TestTrainBasic(t *testing.T) {
	ds, seqs, part := tinySetup(t, 4)
	m, st, err := Train(ds.Dict.Dict, seqs, part, tinyOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if m.Vocab() != ds.Dict.Len() {
		t.Fatalf("model vocab %d", m.Vocab())
	}
	if st.Pairs == 0 {
		t.Fatal("no pairs trained")
	}
	if st.LocalPairs+st.RemotePairs != st.Pairs {
		t.Fatalf("pair accounting broken: %d + %d != %d", st.LocalPairs, st.RemotePairs, st.Pairs)
	}
	if st.Workers != 4 || len(st.PairsPerWorker) != 4 {
		t.Fatalf("worker accounting: %+v", st)
	}
	var sum uint64
	for _, p := range st.PairsPerWorker {
		sum += p
	}
	if sum != st.Pairs {
		t.Fatal("per-worker pairs do not sum")
	}
	if st.SimElapsed <= 0 {
		t.Fatal("SimElapsed not computed")
	}
	// Model must be finite and non-trivial.
	var nonZero bool
	for _, v := range m.In.Data() {
		if v != v {
			t.Fatal("NaN in model")
		}
		if v != 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Fatal("model all zeros")
	}
}

func TestHotReplicationReducesRemote(t *testing.T) {
	ds, seqs, part := tinySetup(t, 4)

	noHot := tinyOptions(4)
	noHot.HotReplication = false
	_, stTNS, err := Train(ds.Dict.Dict, seqs, part, noHot)
	if err != nil {
		t.Fatal(err)
	}
	hot := tinyOptions(4)
	_, stATNS, err := Train(ds.Dict.Dict, seqs, part, hot)
	if err != nil {
		t.Fatal(err)
	}
	if stATNS.HotTokens == 0 {
		t.Fatal("ATNS selected no hot tokens")
	}
	if stATNS.RemoteFraction() >= stTNS.RemoteFraction() {
		t.Fatalf("ATNS remote %.3f not below TNS %.3f",
			stATNS.RemoteFraction(), stTNS.RemoteFraction())
	}
	if stATNS.BytesSent >= stTNS.BytesSent {
		t.Fatalf("ATNS bytes %d not below TNS %d", stATNS.BytesSent, stTNS.BytesSent)
	}
	if stATNS.HotSyncs == 0 {
		t.Fatal("no hot syncs happened")
	}
}

func TestSingleWorkerAllLocal(t *testing.T) {
	ds, seqs, part := tinySetup(t, 1)
	_, st, err := Train(ds.Dict.Dict, seqs, part, tinyOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.RemotePairs != 0 {
		t.Fatalf("single worker made %d remote calls", st.RemotePairs)
	}
}

func TestModelQualityComparableToLocal(t *testing.T) {
	// The distributed model must learn the same structure the local
	// trainer does: same-leaf items more similar than cross-leaf ones.
	ds, seqs, part := tinySetup(t, 4)
	opt := tinyOptions(4)
	opt.Epochs = 2
	m, _, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	var same, cross float64
	var ns, nc int
	for a := int32(0); a < 60; a++ {
		for b := a + 1; b < 60; b++ {
			ca, cb := ds.Dict.Count(a), ds.Dict.Count(b)
			if ca < 10 || cb < 10 {
				continue
			}
			c := float64(vecmath.Cosine(m.In.Row(a), m.In.Row(b)))
			if ds.Catalog.LeafOf(a) == ds.Catalog.LeafOf(b) {
				same += c
				ns++
			} else {
				cross += c
				nc++
			}
		}
	}
	if ns == 0 || nc == 0 {
		t.Skip("not enough frequent pairs in tiny corpus")
	}
	if same/float64(ns) <= cross/float64(nc) {
		t.Fatalf("distributed model did not learn leaf structure: same=%.3f cross=%.3f",
			same/float64(ns), cross/float64(nc))
	}
}

// A straggler: worker 1 pauses every 500 pairs, serving nothing meanwhile,
// so its peers block on it over and over. The run must still finish.
func TestSlowWorkerNoDeadlock(t *testing.T) {
	ds, seqs, part := tinySetup(t, 3)
	opt := tinyOptions(3)
	for at := uint64(500); at <= 20_000; at += 500 {
		opt.Faults.Stalls = append(opt.Faults.Stalls, StallSpec{Worker: 1, AtPairs: at, For: 2 * time.Millisecond})
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := Train(ds.Dict.Dict, seqs, part, opt)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("training with a slow worker did not finish (deadlock?)")
	}
}

func TestOptionErrors(t *testing.T) {
	ds, seqs, part := tinySetup(t, 2)
	opt := tinyOptions(2)
	opt.Workers = 0
	if _, _, err := Train(ds.Dict.Dict, seqs, part, opt); err == nil {
		t.Error("Workers=0 accepted")
	}
	opt = tinyOptions(2)
	if _, _, err := Train(ds.Dict.Dict, seqs, nil, opt); err == nil {
		t.Error("nil partition accepted")
	}
	opt = tinyOptions(3) // mismatch with part.W == 2
	if _, _, err := Train(ds.Dict.Dict, seqs, part, opt); err == nil {
		t.Error("partition/worker mismatch accepted")
	}
}

func TestHotThresholdSelection(t *testing.T) {
	counts := []uint64{100, 5, 50, 0, 7}
	top := selectHot(counts, 3)
	if len(top) != 3 || top[0] != 0 || top[1] != 2 || top[2] != 4 {
		t.Fatalf("topK selection: %v", top)
	}
	if got := selectHot(counts, 0); got != nil {
		t.Fatalf("topK=0 returned %v", got)
	}
}

func TestCostModelScaling(t *testing.T) {
	ds, seqs, _ := tinySetup(t, 1)
	// More workers should (with everything else equal) reduce SimElapsed
	// on this small corpus despite added communication.
	var prev time.Duration
	for _, w := range []int{1, 4} {
		part, _, err := PartitionForDataset(ds, ds.Sessions, w)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := Train(ds.Dict.Dict, seqs, part, tinyOptions(w))
		if err != nil {
			t.Fatal(err)
		}
		if w == 1 {
			prev = st.SimElapsed
			continue
		}
		if st.SimElapsed >= prev {
			t.Fatalf("w=%d sim time %v not below w=1 %v", w, st.SimElapsed, prev)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	st := Stats{Workers: 2, Pairs: 100, RemotePairs: 25, RemoteCalls: 5, PairsPerWorker: []uint64{60, 40},
		Tokens: 1000, SimElapsed: time.Second, Elapsed: 2 * time.Second, RemoteBlocked: time.Second}
	if st.RemoteFraction() != 0.25 {
		t.Fatal("RemoteFraction")
	}
	if st.Imbalance() != 1.2 {
		t.Fatalf("Imbalance = %v", st.Imbalance())
	}
	if st.SimTokensPerSec() != 1000 {
		t.Fatal("SimTokensPerSec")
	}
	if st.PairsPerCall() != 5 || (Stats{}).PairsPerCall() != 0 {
		t.Fatal("PairsPerCall")
	}
	if st.BlockedShare() != 0.25 || (Stats{}).BlockedShare() != 0 {
		t.Fatalf("BlockedShare = %v", st.BlockedShare())
	}
}
