package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"sisg/internal/checkpoint"
	"sisg/internal/corpus"
	"sisg/internal/eval"
	"sisg/internal/graph"
	"sisg/internal/knn"
	"sisg/internal/rng"
	"sisg/internal/sisg"
	"sisg/internal/vocab"
)

// Crashing 1 of 4 workers mid-run must not deadlock: the monitor detects
// the death, the partition is resurrected from its cursor, and the model
// trained through the crash beats a random recommender.
func TestCrashedWorkerRunCompletes(t *testing.T) {
	ds, seqs, part := tinySetup(t, 4)
	opt := recoveryOptions(4)
	// Enough epochs that the partitions carry real signal (a 1-epoch tiny
	// run scores at noise level even without faults), with the crash late
	// enough that worker 1's rows are partially trained when it dies: the
	// quality assertion below must measure fault tolerance, not the
	// baseline quality of an undertrained model.
	opt.Epochs = 5
	opt.Faults.Crashes = []CrashSpec{{Worker: 1, AtPairs: 120000}}

	m, st, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveryInvariants(t, st)
	if len(st.DeadWorkers) != 1 || st.DeadWorkers[0] != 1 {
		t.Fatalf("DeadWorkers = %v, want [1]", st.DeadWorkers)
	}
	if st.Restarts != 1 || st.Takeovers != 0 {
		t.Fatalf("Restarts = %d, Takeovers = %d; want one resurrection", st.Restarts, st.Takeovers)
	}
	// The crash triggers on the worker's own pair counter; the replacement
	// carries the partition on past it.
	if st.PairsPerWorker[1] <= opt.Faults.Crashes[0].AtPairs || st.RecoveredPairs == 0 {
		t.Fatalf("partition 1 trained %d pairs (%d by its replacement), want > %d",
			st.PairsPerWorker[1], st.RecoveredPairs, opt.Faults.Crashes[0].AtPairs)
	}
	for _, v := range m.In.Data() {
		if v != v {
			t.Fatal("NaN in recovered model")
		}
	}

	// Quality floor: the model trained through the crash must beat random
	// retrieval.
	// A wide split keeps the HR granularity fine enough that the margin
	// (~3-4x random in practice) cannot vanish into quantization noise.
	split := ds.SplitNextItem(0.5)
	model := &sisg.Model{Variant: sisg.VariantSISGFUD, Dict: ds.Dict, Emb: m}
	rec := eval.RecommenderFunc(func(tc corpus.TestCase, k int) []knn.Result {
		rs, err := model.SimilarOne(context.Background(), tc.Query, knn.Options{K: k})
		if err != nil {
			return nil
		}
		return rs
	})
	res := eval.Evaluate("crashed", rec, split.Test, []int{20})
	randRec := eval.RecommenderFunc(func(tc corpus.TestCase, k int) []knn.Result {
		// Per-case RNG: Evaluate runs cases concurrently.
		r := rng.New(uint64(tc.Query)*2654435761 + 7)
		out := make([]knn.Result, k)
		for i := range out {
			out[i] = knn.Result{ID: int32(r.Intn(ds.Dict.NumItems))}
		}
		return out
	})
	randRes := eval.Evaluate("random", randRec, split.Test, []int{20})
	if res.HR[20] <= randRes.HR[20] {
		t.Fatalf("surviving model HR@20 %.4f does not beat random %.4f", res.HR[20], randRes.HR[20])
	}
}

// Lost requests are retried until a reply comes — the run always
// terminates and every pair is accounted.
func TestDropFractionRetries(t *testing.T) {
	ds, seqs, part := tinySetup(t, 4)
	opt := recoveryOptions(4)
	opt.RemoteTimeout = 3 * time.Millisecond
	opt.Faults.DropFraction = 0.2

	_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries == 0 {
		t.Fatal("20% request loss produced no retries")
	}
	checkRecoveryInvariants(t, st)
	if len(st.DeadWorkers) != 0 {
		t.Fatalf("request loss must not kill workers: %v", st.DeadWorkers)
	}
}

// A short stall (GC pause) below the death threshold is absorbed by
// retries; nobody is declared dead.
func TestShortStallAbsorbed(t *testing.T) {
	ds, seqs, part := tinySetup(t, 4)
	opt := recoveryOptions(4)
	opt.Faults.Stalls = []StallSpec{{Worker: 2, AtPairs: 100, For: 15 * time.Millisecond}}

	_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.DeadWorkers) != 0 {
		t.Fatalf("short stall flagged dead workers: %v", st.DeadWorkers)
	}
	checkRecoveryInvariants(t, st)
}

// A stall past DeadAfter triggers a false-positive death. That must be
// safe: the stalled incarnation is fenced and waited out before its
// replacement resumes from the cursor, and the run completes with every
// pair accounted.
func TestLongStallFalsePositiveIsSafe(t *testing.T) {
	ds, seqs, part := tinySetup(t, 4)
	opt := recoveryOptions(4)
	opt.Faults.Stalls = []StallSpec{{Worker: 2, AtPairs: 100, For: 200 * time.Millisecond}}

	_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.DeadWorkers) != 1 || st.DeadWorkers[0] != 2 {
		t.Fatalf("DeadWorkers = %v, want [2]", st.DeadWorkers)
	}
	checkRecoveryInvariants(t, st)
	// The falsely-dead partition kept training after its stall.
	if st.PairsPerWorker[2] <= 100 {
		t.Fatalf("stalled partition stopped training: %d pairs", st.PairsPerWorker[2])
	}
}

func TestFaultPlanValidate(t *testing.T) {
	ds, seqs, part := tinySetup(t, 2)
	opt := tinyOptions(2)
	opt.Faults.DropFraction = 1.5
	if _, _, err := Train(ds.Dict.Dict, seqs, part, opt); err == nil {
		t.Fatal("DropFraction 1.5 accepted")
	}
}

// degenerateSetup builds a corpus whose partition gives worker 1 either
// nothing at all, or only tokens that never appear in any sequence —
// the two degenerate cases for the local noise distribution.
func degenerateSetup(n int) (*vocab.Dict, [][]int32, *graph.Partition) {
	d := vocab.NewDict(n)
	for i := 0; i < n; i++ {
		d.Add(fmt.Sprintf("it%d", i), vocab.KindItem, 0)
	}
	r := rng.New(11)
	seqs := make([][]int32, 300)
	for s := range seqs {
		seq := make([]int32, 12)
		for j := range seq {
			seq[j] = int32(r.Intn(n - 1)) // token n-1 never appears
			d.AddCount(seq[j], 1)
		}
		seqs[s] = seq
	}
	part := &graph.Partition{Of: make([]int32, n), W: 2}
	return d, seqs, part
}

// Regression for the degenerate-partition race: a worker's noise
// distribution must never cover rows owned by another worker — negative
// updates write the sampled token's output row, so a full-vocabulary
// fallback races with the owners of those rows.
func TestNoiseForNeverCoversForeignRows(t *testing.T) {
	d, seqs, part := degenerateSetup(50)

	opt := DefaultOptions(2)
	opt.Dim = 8
	opt.Epochs = 1
	opt.HotReplication = false
	e, err := newEngine(d, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 1 owns nothing observed; pre-fix this fell back to the full
	// vocabulary (foreign rows), post-fix it stays within owned ∪ Q.
	for id := 0; id < 2; id++ {
		_, tokens, err := e.noiseFor(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range tokens {
			if e.owner[tk] != int32(id) && e.hotIdx[tk] < 0 {
				t.Fatalf("worker %d noise distribution contains foreign token %d (owner %d)",
					id, tk, e.owner[tk])
			}
		}
	}

	// Worker 1 owning only an unobserved token: uniform fallback over that
	// token, never the full vocabulary.
	part.Of[49] = 1
	e2, err := newEngine(d, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	noise, tokens, err := e2.noiseFor(1)
	if err != nil {
		t.Fatal(err)
	}
	if noise == nil || len(tokens) != 1 || tokens[0] != 49 {
		t.Fatalf("degenerate fallback = %v, want exactly [49]", tokens)
	}

	// A worker owning nothing at all gets a nil table (positive-only
	// training), not an error and not foreign rows.
	part.Of[49] = 0
	e3, err := newEngine(d, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	noise, tokens, err = e3.noiseFor(1)
	if err != nil || noise != nil || tokens != nil {
		t.Fatalf("worker owning nothing: noise=%v tokens=%v err=%v, want all nil", noise, tokens, err)
	}
}

// End-to-end with a degenerate partition under the race detector: worker 1
// owns nothing and participates only via replicated hot-hot pairs; the run
// must complete with a finite model and no cross-partition writes.
func TestDegeneratePartitionTrains(t *testing.T) {
	d, seqs, part := degenerateSetup(50)
	opt := DefaultOptions(2)
	opt.Dim = 8
	opt.Epochs = 1
	opt.Seed = 3
	opt.HotReplication = true
	opt.HotTopK = 8

	m, st, err := Train(d, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs == 0 {
		t.Fatal("nothing trained")
	}
	for _, v := range m.In.Data() {
		if v != v {
			t.Fatal("NaN in model")
		}
	}
}

// A distributed run interrupted right after a snapshot and resumed must
// finish with the exact pair counts of an uninterrupted run: per-worker
// RNG streams and the pair-routing rules are deterministic, so Pairs,
// LocalPairs, RemotePairs and the per-worker loads all replay.
func TestDistCheckpointResumeMatchesUninterrupted(t *testing.T) {
	ds, seqs, part := tinySetup(t, 2)

	base := tinyOptions(2)
	_, baseStats, err := Train(ds.Dict.Dict, seqs, part, base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opt := tinyOptions(2)
	opt.CheckpointDir = dir
	opt.CheckpointEvery = 1 // snapshot at every block barrier
	aborts := 0
	checkpointAbortHook = func(k int) bool {
		aborts++
		return aborts == 1
	}
	_, _, err = Train(ds.Dict.Dict, seqs, part, opt)
	checkpointAbortHook = nil
	if !errors.Is(err, errAbortHook) {
		t.Fatalf("expected injected abort, got %v", err)
	}

	opt.Resume = true
	_, resStats, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resStats.Pairs != baseStats.Pairs ||
		resStats.LocalPairs != baseStats.LocalPairs ||
		resStats.RemotePairs != baseStats.RemotePairs {
		t.Fatalf("resumed pair counts %d/%d/%d != uninterrupted %d/%d/%d",
			resStats.Pairs, resStats.LocalPairs, resStats.RemotePairs,
			baseStats.Pairs, baseStats.LocalPairs, baseStats.RemotePairs)
	}
	for i := range baseStats.PairsPerWorker {
		if resStats.PairsPerWorker[i] != baseStats.PairsPerWorker[i] {
			t.Fatalf("worker %d load %d != %d", i, resStats.PairsPerWorker[i], baseStats.PairsPerWorker[i])
		}
	}

	// The completed run left a final snapshot; resuming it under changed
	// hyper-parameters must be refused.
	bad := opt
	bad.Dim = opt.Dim + 2
	if _, _, err := Train(ds.Dict.Dict, seqs, part, bad); err == nil {
		t.Fatal("resume with different Dim accepted")
	}
}

// A dist snapshot whose counter block has the older 16-slot per-worker
// layout (it carried degraded and dropped-pair slots) is refused on resume
// rather than misread.
func TestResumeRefusesOldCounterLayout(t *testing.T) {
	ds, seqs, part := tinySetup(t, 2)
	opt := tinyOptions(2)
	opt.CheckpointDir = t.TempDir()
	opt.CheckpointEvery = math.MaxUint64 // one snapshot, at the final barrier
	if _, _, err := Train(ds.Dict.Dict, seqs, part, opt); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(opt.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	const oldSlots = 16
	snap.Counters = make([]uint64, 1+oldSlots*opt.Workers)
	if err := checkpoint.Save(opt.CheckpointDir, snap); err != nil {
		t.Fatal(err)
	}
	opt.Resume = true
	_, _, err = Train(ds.Dict.Dict, seqs, part, opt)
	want := fmt.Sprintf("snapshot has %d counters, want %d", 1+oldSlots*opt.Workers, 1+workerCounterLen*opt.Workers)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume of a %d-slot snapshot: err = %v, want %q", oldSlots, err, want)
	}
}
