package graph

import (
	"math"
	"testing"

	"sisg/internal/corpus"
	"sisg/internal/rng"
)

func TestAddEdgeAndFinalize(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 1, 3) // accumulates
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 0, 4)
	g.AddEdge(2, 2, 9) // self-loop ignored
	g.Finalize()

	if len(g.edges) != 3 {
		t.Fatalf("%d edges, want 3", len(g.edges))
	}
	if w := g.Weight(0, 1); w != 5 {
		t.Fatalf("Weight(0,1) = %v", w)
	}
	if w := g.Weight(0, 3); w != 0 {
		t.Fatalf("Weight(0,3) = %v", w)
	}
	if w := g.outW[0]; w != 6 {
		t.Fatalf("out-weight of 0 = %v", w)
	}
	out := g.Out(0)
	if len(out) != 2 || out[0].To != 1 || out[1].To != 2 {
		t.Fatalf("Out(0) = %v", out)
	}
	if len(g.Out(3)) != 0 {
		t.Fatal("Out(3) should be empty")
	}
}

func TestAddAfterFinalizePanics(t *testing.T) {
	g := New(2)
	g.Finalize()
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge after Finalize did not panic")
		}
	}()
	g.AddEdge(0, 1, 1)
}

func TestFromSessions(t *testing.T) {
	sessions := []corpus.Session{
		{Items: []int32{0, 1, 2}},
		{Items: []int32{0, 1}},
		{Items: []int32{2, 2}}, // self transition ignored
	}
	g := FromSessions(sessions, 3)
	if w := g.Weight(0, 1); w != 2 {
		t.Fatalf("Weight(0,1) = %v", w)
	}
	if w := g.Weight(1, 2); w != 1 {
		t.Fatalf("Weight(1,2) = %v", w)
	}
	if w := g.Weight(1, 0); w != 0 {
		t.Fatal("reverse edge should not exist")
	}
}

func TestStepDistribution(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 3)
	g.AddEdge(0, 2, 1)
	g.Finalize()
	r := rng.New(1)
	counts := map[int32]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		counts[g.Step(0, r)]++
	}
	p1 := float64(counts[1]) / n
	if math.Abs(p1-0.75) > 0.02 {
		t.Fatalf("Step P(1) = %.3f, want ~0.75", p1)
	}
	if g.Step(1, r) != -1 {
		t.Fatal("sink should return -1")
	}
}

func TestWalk(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.Finalize()
	r := rng.New(2)
	w := g.Walk(0, 10, r)
	if len(w) != 3 || w[0] != 0 || w[1] != 1 || w[2] != 2 {
		t.Fatalf("Walk = %v", w)
	}
	// Walk from sink contains only the start.
	if w := g.Walk(3, 5, r); len(w) != 1 || w[0] != 3 {
		t.Fatalf("sink walk = %v", w)
	}
}

func TestWalkCorpus(t *testing.T) {
	sessions := []corpus.Session{{Items: []int32{0, 1, 2, 3, 0, 1}}}
	g := FromSessions(sessions, 4)
	walks := g.WalkCorpus(3, 5, 7)
	if len(walks) != 3*4 { // every node has out-degree > 0 here
		t.Fatalf("got %d walks", len(walks))
	}
	for _, w := range walks {
		if len(w) < 1 || len(w) > 5 {
			t.Fatalf("walk length %d", len(w))
		}
	}
}

func hbgpFixture(t *testing.T) (*Graph, []int32, []float64, int) {
	t.Helper()
	cfg := corpus.Tiny()
	ds, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := FromSessions(ds.Sessions, cfg.NumItems)
	leafOf := make([]int32, cfg.NumItems)
	freq := make([]float64, cfg.NumItems)
	for i := 0; i < cfg.NumItems; i++ {
		leafOf[i] = ds.Catalog.LeafOf(int32(i))
		freq[i] = float64(ds.Dict.Count(int32(i)))
	}
	return g, leafOf, freq, ds.Catalog.NumLeaves()
}

func TestHBGPValidPartition(t *testing.T) {
	g, leafOf, freq, numLeaves := hbgpFixture(t)
	for _, w := range []int{2, 4, 8} {
		p, err := HBGP(g, leafOf, numLeaves, freq, w, 1.2)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if p.W != w || len(p.Of) != g.N() {
			t.Fatalf("w=%d: bad shape", w)
		}
		// All leaves of one category on one worker.
		for i := 0; i < g.N(); i++ {
			if p.Of[i] != p.LeafOf[leafOf[i]] {
				t.Fatalf("item %d not with its leaf", i)
			}
			if p.Of[i] < 0 || int(p.Of[i]) >= w {
				t.Fatalf("item %d worker out of range", i)
			}
		}
		// Every worker gets something (tiny corpus is connected enough).
		for wk, load := range p.Loads {
			if load == 0 {
				t.Fatalf("w=%d: worker %d has zero load", w, wk)
			}
		}
	}
}

func TestHBGPBeatsRandomOnCut(t *testing.T) {
	g, leafOf, freq, numLeaves := hbgpFixture(t)
	const w = 4
	hb, err := HBGP(g, leafOf, numLeaves, freq, w, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	rnd := RandomPartition(g.N(), freq, w, 99)
	if hb.CutFraction(g) >= rnd.CutFraction(g) {
		t.Fatalf("HBGP cut %.3f not better than random %.3f",
			hb.CutFraction(g), rnd.CutFraction(g))
	}
}

func TestHBGPBalance(t *testing.T) {
	g, leafOf, freq, numLeaves := hbgpFixture(t)
	p, err := HBGP(g, leafOf, numLeaves, freq, 4, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	// The relaxation loop may raise beta, but the final imbalance must
	// stay within the relaxed bound.
	if p.Imbalance() > p.BetaUsed+0.01 {
		t.Fatalf("imbalance %.2f exceeds beta %.2f", p.Imbalance(), p.BetaUsed)
	}
}

func TestHBGPDeterministic(t *testing.T) {
	g, leafOf, freq, numLeaves := hbgpFixture(t)
	a, err := HBGP(g, leafOf, numLeaves, freq, 4, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HBGP(g, leafOf, numLeaves, freq, 4, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Of {
		if a.Of[i] != b.Of[i] {
			t.Fatal("HBGP not deterministic")
		}
	}
}

func TestHBGPErrors(t *testing.T) {
	g, leafOf, freq, numLeaves := hbgpFixture(t)
	if _, err := HBGP(g, leafOf, numLeaves, freq, 0, 1.2); err == nil {
		t.Error("w=0 accepted")
	}
	if _, err := HBGP(g, leafOf, numLeaves, freq, 4, 0.5); err == nil {
		t.Error("beta<1 accepted")
	}
	if _, err := HBGP(g, leafOf[:1], numLeaves, freq, 4, 1.2); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := HBGP(g, leafOf, numLeaves, freq, numLeaves+1, 1.2); err == nil {
		t.Error("w > numLeaves accepted")
	}
}

func TestGreedyLoadPartitionBalance(t *testing.T) {
	freq := make([]float64, 100)
	for i := range freq {
		freq[i] = float64(i + 1)
	}
	p := GreedyLoadPartition(100, freq, 4)
	if p.Imbalance() > 1.05 {
		t.Fatalf("greedy imbalance %.3f", p.Imbalance())
	}
	for i := range p.Of {
		if p.Of[i] < 0 || p.Of[i] >= 4 {
			t.Fatal("assignment out of range")
		}
	}
}

func TestRandomPartitionCoversWorkers(t *testing.T) {
	freq := make([]float64, 1000)
	for i := range freq {
		freq[i] = 1
	}
	p := RandomPartition(1000, freq, 8, 1)
	seen := map[int32]bool{}
	for _, w := range p.Of {
		seen[w] = true
	}
	if len(seen) != 8 {
		t.Fatalf("only %d workers used", len(seen))
	}
}
