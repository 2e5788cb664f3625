package sgns

import (
	"testing"

	"sisg/internal/rng"
	"sisg/internal/vocab"
)

// liveFixture feeds n synthetic two-cluster sessions: rows {0..3} co-occur,
// rows {4..7} co-occur, never across.
func liveFixture(t *testing.T, n int) *Live {
	t.Helper()
	opt := LiveDefaults(16)
	opt.Window = 2
	opt.Seed = 3
	l, err := NewLive(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		l.AddRow(vocab.KindItem)
	}
	state := uint64(11)
	next := func(m uint64) int32 {
		state = state*6364136223846793005 + 1442695040888963407
		return int32(state >> 33 % m)
	}
	for i := 0; i < n; i++ {
		base := int32(0)
		if i%2 == 1 {
			base = 4
		}
		seq := make([]int32, 6)
		for j := range seq {
			seq[j] = base + next(4)
		}
		l.TrainSequence(seq)
	}
	return l
}

func TestLiveDeterministic(t *testing.T) {
	a, b := liveFixture(t, 400), liveFixture(t, 400)
	if a.Pairs() == 0 {
		t.Fatal("no pairs trained")
	}
	if a.Pairs() != b.Pairs() || a.Updates() != b.Updates() {
		t.Fatalf("stats diverge: %d/%d vs %d/%d", a.Pairs(), a.Updates(), b.Pairs(), b.Updates())
	}
	ad, bd := a.Model().In.Data(), b.Model().In.Data()
	for i := range ad {
		if ad[i] != bd[i] {
			t.Fatalf("input matrices diverge at %d: %v vs %v", i, ad[i], bd[i])
		}
	}
}

func TestLiveLearnsCoOccurrence(t *testing.T) {
	l := liveFixture(t, 3000)
	m := l.Model()
	// Within-cluster similarity must beat cross-cluster.
	within := m.ScoreCosine(0, 1)
	cross := m.ScoreCosine(0, 5)
	if within <= cross {
		t.Fatalf("within-cluster cosine %.4f not above cross-cluster %.4f", within, cross)
	}
}

func TestLiveAddRowAfterTraining(t *testing.T) {
	l := liveFixture(t, 200)
	row := l.AddRow(vocab.KindItem)
	if row != 8 {
		t.Fatalf("new row %d, want 8", row)
	}
	// The new row trains immediately in sequences.
	before := append([]float32(nil), l.Model().In.Row(row)...)
	l.TrainSequence([]int32{row, 0, 1, row, 2})
	after := l.Model().In.Row(row)
	changed := false
	for i := range after {
		if after[i] != before[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("freshly added row untouched by training")
	}
}

func TestLiveSetRowSeedsBeforeTraining(t *testing.T) {
	opt := LiveDefaults(4)
	l, err := NewLive(opt)
	if err != nil {
		t.Fatal(err)
	}
	row := l.AddRow(vocab.KindItem)
	seed := make([]float32, opt.Dim)
	for i := range seed {
		seed[i] = 0.25
	}
	l.SetRow(row, seed, seed)
	got := l.Model().In.Row(row)
	for i := range got {
		if got[i] != 0.25 {
			t.Fatalf("seeded row[%d] = %v, want 0.25", i, got[i])
		}
	}
}

func TestLiveCapacityPanics(t *testing.T) {
	opt := LiveDefaults(2)
	l, err := NewLive(opt)
	if err != nil {
		t.Fatal(err)
	}
	l.AddRow(vocab.KindItem)
	l.AddRow(vocab.KindItem)
	defer func() {
		if recover() == nil {
			t.Fatal("AddRow beyond capacity did not panic")
		}
	}()
	l.AddRow(vocab.KindItem)
}

// BenchmarkLiveTrainSequence is the ingest half of a streaming round at
// the repository benchmark's scale: 24k live rows of dim 64, 45-token
// directed sequences with the SI stride, rows drawn with a popularity
// skew. One iteration is one sequence.
func BenchmarkLiveTrainSequence(b *testing.B) {
	const rows, seqLen = 24000, 45
	opt := LiveDefaults(rows)
	opt.Dim = 64
	opt.Stride = 9
	opt.Window = 5 * opt.Stride
	opt.Directed = true
	l, err := NewLive(opt)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		l.AddRow(vocab.KindItem)
	}
	r := rng.New(7)
	seqs := make([][]int32, 512)
	for i := range seqs {
		seqs[i] = make([]int32, seqLen)
		for j := range seqs[i] {
			seqs[i][j] = int32(r.Intn(1 + r.Intn(rows)))
		}
	}
	for _, s := range seqs { // first noise table, counts on every row class
		l.TrainSequence(s)
	}
	pairs0 := l.Pairs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.TrainSequence(seqs[i%len(seqs)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(l.Pairs()-pairs0), "ns/pair")
}
