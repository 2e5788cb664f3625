package dist

import (
	"fmt"
	"testing"

	"sisg/internal/graph"
	"sisg/internal/sgns"
	"sisg/internal/vocab"
)

// In an undirected walk a centre whose drawn window reaches past the start
// of the sequence still trains the left context that exists: every trainer
// of a two-token sequence at window 5 trains both pairs, whatever the draw.
// (Dropping the whole left side there trains 1.2 pairs per sequence on
// average: the right pair always, the left pair only when the draw is 1.)
func TestUndirectedWindowKeepsLeftContext(t *testing.T) {
	const items, n = 10, 200
	d := vocab.NewDict(items)
	for i := 0; i < items; i++ {
		d.Add(fmt.Sprintf("item_%d", i), vocab.KindItem, 0)
	}
	seqs := make([][]int32, n)
	for s := range seqs {
		seqs[s] = []int32{int32(s % items), int32((s + 1 + s/items) % items)}
		if seqs[s][0] == seqs[s][1] {
			seqs[s][1] = (seqs[s][1] + 1) % items
		}
	}
	base := sgns.Defaults()
	base.Dim, base.Window, base.Epochs, base.Workers, base.SubsampleT = 8, 5, 1, 1, 0

	_, st, err := sgns.Train(d, seqs, base)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != 2*n {
		t.Errorf("sgns.Train trained %d pairs over %d two-token sequences, want %d", st.Pairs, n, 2*n)
	}

	lo := sgns.LiveDefaults(items)
	lo.Dim, lo.Window, lo.SubsampleT = 8, 5, 0
	live, err := sgns.NewLive(lo)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < items; i++ {
		live.AddRow(vocab.KindItem)
	}
	for _, s := range seqs {
		live.TrainSequence(s)
	}
	if live.Pairs() != 2*n {
		t.Errorf("Live trained %d pairs over %d two-token sequences, want %d", live.Pairs(), n, 2*n)
	}

	opt := DefaultOptions(1)
	opt.Options = base
	_, dst, err := Train(d, seqs, &graph.Partition{Of: make([]int32, items), W: 1}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Pairs != 2*n {
		t.Errorf("dist.Train (one worker) trained %d pairs over %d two-token sequences, want %d", dst.Pairs, n, 2*n)
	}
}
