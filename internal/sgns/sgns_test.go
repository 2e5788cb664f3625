package sgns

import (
	"testing"
	"time"

	"sisg/internal/cacheline"
	"sisg/internal/race"
	"sisg/internal/rng"
	"sisg/internal/vocab"
)

// clusterDict builds a vocabulary of 2*n items and sequences where items
// 0..n-1 co-occur and items n..2n-1 co-occur, never across — the simplest
// structure a working skip-gram must recover.
func clusterCorpus(n, sessions int, seed uint64) (*vocab.Dict, [][]int32) {
	d := vocab.NewDict(2 * n)
	for i := 0; i < 2*n; i++ {
		d.Add(itemName(i), vocab.KindItem, 0)
	}
	r := rng.New(seed)
	var seqs [][]int32
	for s := 0; s < sessions; s++ {
		base := 0
		if s%2 == 1 {
			base = n
		}
		seq := make([]int32, 8)
		for j := range seq {
			seq[j] = int32(base + r.Intn(n))
		}
		seqs = append(seqs, seq)
	}
	return d, seqs
}

func itemName(i int) string {
	return "item_" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func testOptions() Options {
	o := Defaults()
	o.Dim = 16
	o.Epochs = 5
	o.Workers = 1
	o.SubsampleT = 0
	return o
}

func TestValidate(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.Dim = 0 },
		func(o *Options) { o.Window = 0 },
		func(o *Options) { o.Negatives = -1 },
		func(o *Options) { o.Epochs = 0 },
		func(o *Options) { o.LR = 0 },
		func(o *Options) { o.SIBoost = 2 },
		func(o *Options) { o.NoiseAlpha = 0 },
	}
	for i, mutate := range bad {
		o := Defaults()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	o := Defaults()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyVocabError(t *testing.T) {
	if _, _, err := Train(vocab.NewDict(0), nil, Defaults()); err == nil {
		t.Fatal("empty vocabulary accepted")
	}
}

func TestLearnsClusters(t *testing.T) {
	d, seqs := clusterCorpus(10, 600, 42)
	m, st, err := Train(d, seqs, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs == 0 || st.Tokens == 0 {
		t.Fatalf("no training happened: %+v", st)
	}
	// Mean within-cluster cosine must clearly exceed cross-cluster cosine.
	var within, across float64
	var nw, na int
	for a := int32(0); a < 10; a++ {
		for b := a + 1; b < 20; b++ {
			c := float64(m.ScoreCosine(a, b))
			if b < 10 {
				within += c
				nw++
			} else {
				across += c
				na++
			}
		}
	}
	within /= float64(nw)
	across /= float64(na)
	if within < across+0.2 {
		t.Fatalf("clusters not learned: within=%.3f across=%.3f", within, across)
	}
}

func TestDirectedLearnsOrder(t *testing.T) {
	// Sequences are always the fixed chain 0→1→2→…→9. A directed model
	// must give in(i)·out(i+1) ≫ in(i+1)·out(i).
	d := vocab.NewDict(10)
	for i := 0; i < 10; i++ {
		d.Add(itemName(i), vocab.KindItem, 0)
	}
	chain := make([]int32, 10)
	for i := range chain {
		chain[i] = int32(i)
	}
	var seqs [][]int32
	for s := 0; s < 400; s++ {
		seqs = append(seqs, chain)
	}
	o := testOptions()
	o.Directed = true
	o.Window = 2
	m, _, err := Train(d, seqs, o)
	if err != nil {
		t.Fatal(err)
	}
	better := 0
	for i := int32(0); i < 9; i++ {
		if m.ScoreDirected(i, i+1) > m.ScoreDirected(i+1, i) {
			better++
		}
	}
	if better < 8 {
		t.Fatalf("directed order learned for only %d/9 adjacent pairs", better)
	}
}

func TestDeterministicSingleWorker(t *testing.T) {
	d, seqs := clusterCorpus(6, 100, 7)
	o := testOptions()
	o.Epochs = 2
	m1, st1, err := Train(d, seqs, o)
	if err != nil {
		t.Fatal(err)
	}
	m2, st2, err := Train(d, seqs, o)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Pairs != st2.Pairs {
		t.Fatalf("pair counts differ: %d vs %d", st1.Pairs, st2.Pairs)
	}
	a, b := m1.In.Data(), m2.In.Data()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("single-worker training is not deterministic")
		}
	}
}

func TestStrideWindows(t *testing.T) {
	// With stride 3 and window 6, a center must reach at least stride
	// positions; construct a sequence where items sit 3 apart (simulating
	// SI padding) and verify pairs at distance 3 are trained (the pair
	// count must exceed the no-stride directed minimum).
	d, seqs := clusterCorpus(8, 200, 9)
	o := testOptions()
	o.Stride = 3
	o.Window = 6
	_, st, err := Train(d, seqs, o)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs == 0 {
		t.Fatal("stride training produced no pairs")
	}
}

func TestDirectedHalvesPairs(t *testing.T) {
	d, seqs := clusterCorpus(8, 300, 5)
	sym := testOptions()
	symM, symStats, err := Train(d, seqs, sym)
	if err != nil {
		t.Fatal(err)
	}
	_ = symM
	dir := testOptions()
	dir.Directed = true
	_, dirStats, err := Train(d, seqs, dir)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(dirStats.Pairs) / float64(symStats.Pairs)
	if ratio < 0.35 || ratio > 0.65 {
		t.Fatalf("directed/symmetric pair ratio %.2f, want ~0.5", ratio)
	}
}

func TestStatsThroughput(t *testing.T) {
	d, seqs := clusterCorpus(4, 50, 3)
	_, st, err := Train(d, seqs, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.TokensPerSec() <= 0 {
		t.Fatal("throughput not positive")
	}
	if st.Updates != st.Pairs*uint64(1+testOptions().Negatives) {
		t.Fatalf("updates %d != pairs %d × %d", st.Updates, st.Pairs, 1+testOptions().Negatives)
	}
}

func TestIdleShare(t *testing.T) {
	d, seqs := clusterCorpus(10, 600, 11)
	o := testOptions()
	o.Workers = race.Workers(2)
	_, st, err := Train(d, seqs, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Busy) != st.WorkersUsed {
		t.Fatalf("%d busy times for %d workers", len(st.Busy), st.WorkersUsed)
	}
	for w, b := range st.Busy {
		if b <= 0 || b > st.Elapsed {
			t.Fatalf("worker %d busy %v of a %v run", w, b, st.Elapsed)
		}
	}
	if s := st.IdleShare(); s < 0 || s >= 1 {
		t.Fatalf("IdleShare = %v, want in [0, 1)", s)
	}
	fixed := Stats{Elapsed: 2 * time.Second, Busy: []time.Duration{2 * time.Second, time.Second}}
	if fixed.IdleShare() != 0.25 || (Stats{}).IdleShare() != 0 {
		t.Fatalf("IdleShare = %v and %v, want 0.25 and 0", fixed.IdleShare(), (Stats{}).IdleShare())
	}
}

// Every pair writes a shard's RNG, negative draws and gradient; two shards
// that write one cache line train no faster than one. Each shard's state is
// one padded block, so no line holds bytes of two shards' state. This trains
// nothing, so it runs under the race detector too.
func TestWorkerStatesShareNoCacheLine(t *testing.T) {
	opt := Defaults()
	master := rng.New(1)
	var owners [][]cacheline.Span
	for w := 0; w < 8; w++ {
		ws := newWorkerState(nil, nil, nil, &opt, master.Split(), 40)
		owners = append(owners, []cacheline.Span{
			cacheline.SpanOf(ws), // the RNG, counters and lr included
			cacheline.SliceSpan(ws.negs),
			cacheline.SliceSpan(ws.grad),
			cacheline.SliceSpan(ws.kept[:cap(ws.kept)]),
		})
	}
	if err := cacheline.Shared(owners); err != nil {
		t.Fatal(err)
	}
}

func TestDecayLR(t *testing.T) {
	if got := DecayLR(0.1, 1e-4, 0, 100); got != 0.1 {
		t.Fatalf("start LR %v", got)
	}
	if got := DecayLR(0.1, 1e-4, 100, 100); got != 0.1*1e-4 {
		t.Fatalf("end LR %v", got)
	}
	mid := DecayLR(0.1, 1e-4, 50, 100)
	if mid < 0.049 || mid > 0.051 {
		t.Fatalf("mid LR %v", mid)
	}
}

func TestParallelWorkersProduceReasonableModel(t *testing.T) {
	d, seqs := clusterCorpus(10, 600, 11)
	o := testOptions()
	o.Workers = race.Workers(4)
	m, st, err := Train(d, seqs, o)
	if err != nil {
		t.Fatal(err)
	}
	if st.WorkersUsed != o.Workers {
		t.Fatalf("workers used %d", st.WorkersUsed)
	}
	var within, across float64
	var nw, na int
	for a := int32(0); a < 10; a++ {
		for b := a + 1; b < 20; b++ {
			c := float64(m.ScoreCosine(a, b))
			if b < 10 {
				within += c
				nw++
			} else {
				across += c
				na++
			}
		}
	}
	if within/float64(nw) < across/float64(na)+0.2 {
		t.Fatal("parallel training failed to learn clusters")
	}
}
