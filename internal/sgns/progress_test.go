package sgns

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The reporter must deliver periodic snapshots with sane derived values
// (monotone counters, positive rates while moving, ETA shrinking toward
// zero) and exactly one final Done snapshot, idempotently.
func TestProgressReporter(t *testing.T) {
	var pairs, tokens atomic.Uint64
	const total = 1000

	var mu sync.Mutex
	var got []Progress
	sink := func(p Progress) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	}

	stop := StartProgress(sink, 5*time.Millisecond, 3, total,
		func() (int, uint64, uint64, float32) {
			return 1, pairs.Load(), tokens.Load(), 0.0125
		})
	for i := 0; i < 10; i++ {
		pairs.Add(7)
		tokens.Add(50)
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // idempotent: must not panic or emit a second Done

	mu.Lock()
	defer mu.Unlock()
	if len(got) < 2 {
		t.Fatalf("only %d snapshots from a 50ms run at 5ms cadence", len(got))
	}
	finals := 0
	for i, p := range got {
		if p.Done {
			finals++
			if i != len(got)-1 {
				t.Fatalf("Done snapshot at %d of %d, want last", i, len(got))
			}
		}
		if p.Epoch != 1 || p.Epochs != 3 || p.LR != 0.0125 || p.TotalTokens != total {
			t.Fatalf("snapshot %d carries wrong pass-through fields: %+v", i, p)
		}
		if p.Fraction() < 0 || p.Fraction() > 1 {
			t.Fatalf("Fraction %v out of [0,1]", p.Fraction())
		}
		if i > 0 {
			prev := got[i-1]
			if p.Pairs < prev.Pairs || p.Tokens < prev.Tokens || p.Elapsed < prev.Elapsed {
				t.Fatalf("snapshot %d went backwards: %+v after %+v", i, p, prev)
			}
		}
	}
	if finals != 1 {
		t.Fatalf("%d Done snapshots, want exactly 1", finals)
	}
	last := got[len(got)-1]
	if last.Pairs != 70 || last.Tokens != 500 {
		t.Fatalf("final snapshot read %d pairs / %d tokens, want 70/500", last.Pairs, last.Tokens)
	}
	if last.ETA <= 0 {
		t.Fatalf("run half done (500/%d tokens) but ETA = %v", total, last.ETA)
	}

	// A rate is averaged since the previous report: every mid-run snapshot
	// whose counter moved since the one before must show a positive rate,
	// one whose counter stood still (a tick landing between two increments)
	// exactly zero, and a 50 ms run at this cadence must have seen both
	// counters move. The first snapshot is left out: its baseline is
	// whatever the reporter goroutine read when it started.
	pairsMoved, tokensMoved := 0, 0
	for i := 1; i < len(got)-1; i++ {
		prev, p := got[i-1], got[i]
		if (p.Pairs > prev.Pairs) != (p.PairsPerSec > 0) {
			t.Fatalf("snapshot %d: pairs %d → %d but PairsPerSec = %v", i, prev.Pairs, p.Pairs, p.PairsPerSec)
		}
		if (p.Tokens > prev.Tokens) != (p.TokensPerSec > 0) {
			t.Fatalf("snapshot %d: tokens %d → %d but TokensPerSec = %v", i, prev.Tokens, p.Tokens, p.TokensPerSec)
		}
		if p.Pairs > prev.Pairs {
			pairsMoved++
		}
		if p.Tokens > prev.Tokens {
			tokensMoved++
		}
	}
	if pairsMoved == 0 || tokensMoved == 0 {
		t.Fatalf("no mid-run snapshot saw the counters move: %+v", got)
	}
}

// The trainer must call the sink when Options.Progress is set — including
// the final Done snapshot even when the run finishes before the first tick.
func TestTrainerReportsProgress(t *testing.T) {
	d, seqs := clusterCorpus(8, 200, 1)
	opt := testOptions()
	var mu sync.Mutex
	var got []Progress
	opt.Progress = func(p Progress) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	}
	opt.ProgressEvery = time.Millisecond
	m, st, err := Train(d, seqs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || st.Pairs == 0 {
		t.Fatal("training produced nothing")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("Progress sink never called")
	}
	last := got[len(got)-1]
	if !last.Done {
		t.Fatalf("last snapshot not Done: %+v", last)
	}
	if last.Pairs != st.Pairs {
		t.Fatalf("final snapshot saw %d pairs, Stats says %d", last.Pairs, st.Pairs)
	}
}

// Progress must not leak into the checkpoint fingerprint: two option sets
// differing only in observer fields resume each other's checkpoints.
func TestFingerprintIgnoresProgress(t *testing.T) {
	a, b := Defaults(), Defaults()
	b.Progress = func(Progress) {}
	b.ProgressEvery = time.Second
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("observer fields changed the checkpoint fingerprint")
	}
}
