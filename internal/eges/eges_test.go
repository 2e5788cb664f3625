package eges

import (
	"context"
	"math"
	"testing"

	"sisg/internal/cacheline"
	"sisg/internal/corpus"
	"sisg/internal/graph"
	"sisg/internal/race"
	"sisg/internal/rng"
	"sisg/internal/vecmath"
)

func testOptions() Options {
	o := Defaults()
	o.Dim = 16
	o.Epochs = 3
	o.Workers = 1
	return o
}

func TestValidate(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.Dim = 0 },
		func(o *Options) { o.Window = 0 },
		func(o *Options) { o.Negatives = -1 },
		func(o *Options) { o.Epochs = 0 },
		func(o *Options) { o.LR = 0 },
		func(o *Options) { o.WalksPerNode = 0 },
		func(o *Options) { o.WalkLength = 1 },
		func(o *Options) { o.NoiseAlpha = 0 },
	}
	for i, mutate := range bad {
		o := Defaults()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func tinyEGES(t *testing.T) (*corpus.Dataset, *Model) {
	t.Helper()
	ds, err := corpus.Generate(corpus.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromSessions(ds.Sessions, ds.Dict.NumItems)
	m, err := Train(ds.Dict, g, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ds, m
}

func TestTrainShapes(t *testing.T) {
	ds, m := tinyEGES(t)
	if m.In.Rows() != ds.Dict.Len() {
		t.Fatalf("In rows %d", m.In.Rows())
	}
	if m.Out.Rows() != ds.Dict.NumItems {
		t.Fatalf("Out rows %d (SI must have no output vectors)", m.Out.Rows())
	}
	if len(m.Attn) != ds.Dict.NumItems {
		t.Fatalf("Attn rows %d", len(m.Attn))
	}
	if m.H.Rows() != ds.Dict.NumItems {
		t.Fatalf("H rows %d", m.H.Rows())
	}
	if m.Stats.Pairs == 0 || m.Stats.Walks == 0 {
		t.Fatalf("no training: %+v", m.Stats)
	}
}

func TestAggregationIsConvexCombination(t *testing.T) {
	_, m := tinyEGES(t)
	st := trainerState{m: m, h: make([]float32, m.In.Dim), alph: make([]float32, 1+corpus.NumSIColumns)}
	st.aggregate(5)
	// Softmax weights sum to 1.
	var sum float32
	for _, a := range st.alph {
		if a < 0 || a > 1 {
			t.Fatalf("attention weight out of range: %v", a)
		}
		sum += a
	}
	if math.Abs(float64(sum)-1) > 1e-4 {
		t.Fatalf("attention weights sum to %v", sum)
	}
	// H equals the weighted sum of the constituent rows.
	want := make([]float32, m.In.Dim)
	vecmath.Axpy(st.alph[0], m.In.Row(5), want)
	for k, sid := range m.Dict.ItemSI[5] {
		vecmath.Axpy(st.alph[k+1], m.In.Row(sid), want)
	}
	for i := range want {
		if math.Abs(float64(want[i]-st.h[i])) > 1e-5 {
			t.Fatal("H is not the attention-weighted sum")
		}
	}
}

func TestSimilarLeafCoherence(t *testing.T) {
	ds, m := tinyEGES(t)
	// Hot item's neighbours should mostly share its top category.
	query := int32(0)
	var best uint64
	for i := 0; i < ds.Dict.NumItems; i++ {
		if c := ds.Dict.Count(int32(i)); c > best {
			best, query = c, int32(i)
		}
	}
	recs, err := m.Similar(context.Background(), query, 10)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for _, r := range recs {
		if r.ID == query {
			t.Fatal("query in its own results")
		}
		if ds.Catalog.Items[r.ID].Top == ds.Catalog.Items[query].Top {
			same++
		}
	}
	if same < 5 {
		t.Fatalf("EGES neighbours incoherent: %d/10", same)
	}
}

func TestAttentionFinite(t *testing.T) {
	_, m := tinyEGES(t)
	for i := range m.Attn {
		for _, a := range m.Attn[i] {
			if a != a || float64(a) > 1e6 || float64(a) < -1e6 {
				t.Fatalf("attention logit diverged: item %d = %v", i, m.Attn[i])
			}
		}
	}
}

// Every other test trains one shard; production trains one per CPU.
// Lock-free updates of shared rows are the algorithm, so the race detector
// would report them: the multi-worker CI step runs this without it.
func TestTwoWorkersTrainFiniteModel(t *testing.T) {
	if race.Enabled {
		t.Skip("Hogwild's shared-row writes are racy by design")
	}
	ds, err := corpus.Generate(corpus.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Workers = 2
	m, err := Train(ds.Dict, graph.FromSessions(ds.Sessions, ds.Dict.NumItems), opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.Pairs == 0 {
		t.Fatalf("no pairs trained: %+v", m.Stats)
	}
	for name, xs := range map[string][]float32{"In": m.In.Data(), "Out": m.Out.Data(), "H": m.H.Data()} {
		for i, x := range xs {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				t.Fatalf("%s[%d] = %v", name, i, x)
			}
		}
	}
}

// Every pair writes a shard's RNG, negative draws, attention weights, H_i
// and its gradient; two shards that write one cache line train no faster
// than one. Each shard's state is one padded block, so no line holds bytes
// of two shards' state. This trains nothing, so it runs under the race
// detector too.
func TestTrainerStatesShareNoCacheLine(t *testing.T) {
	opt := testOptions()
	master := rng.New(1)
	var owners [][]cacheline.Span
	for w := 0; w < 8; w++ {
		st := newTrainerState(nil, &opt, nil, master.Split())
		owners = append(owners, []cacheline.Span{
			cacheline.SpanOf(st), // the RNG, lr and pair count included
			cacheline.SliceSpan(st.negs),
			cacheline.SliceSpan(st.alph),
			cacheline.SliceSpan(st.h),
			cacheline.SliceSpan(st.dh),
		})
	}
	if err := cacheline.Shared(owners); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyWalksError(t *testing.T) {
	ds, err := corpus.Generate(corpus.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(ds.Dict.NumItems) // no edges
	g.Finalize()
	if _, err := Train(ds.Dict, g, testOptions()); err == nil {
		t.Fatal("empty walk corpus accepted")
	}
}
