package sgns

import (
	"errors"
	"fmt"
	"testing"

	"sisg/internal/checkpoint"
	"sisg/internal/race"
	"sisg/internal/rng"
	"sisg/internal/vocab"
)

// ckptCorpus builds a small deterministic corpus: vocabulary of n tokens,
// sessions of random tokens.
func ckptCorpus(t *testing.T, n, sessions, sessLen int) (*vocab.Dict, [][]int32) {
	t.Helper()
	d := vocab.NewDict(n)
	for i := 0; i < n; i++ {
		d.Add(itemName(i), vocab.KindItem, 0)
	}
	r := rng.New(99)
	seqs := make([][]int32, sessions)
	for s := range seqs {
		seq := make([]int32, sessLen)
		for j := range seq {
			seq[j] = int32(r.Intn(n))
			d.AddCount(seq[j], 1)
		}
		seqs[s] = seq
	}
	return d, seqs
}

func ckptOptions(workers int) Options {
	opt := Defaults()
	opt.Dim = 8
	opt.Epochs = 3
	opt.Workers = race.Workers(workers)
	opt.Seed = 5
	return opt
}

// A run interrupted right after its first snapshot and resumed must end
// with exactly the Stats trajectory of an uninterrupted run: same Pairs,
// Updates and Tokens. With a single shard the model itself must also be
// bit-identical (multi-shard Hogwild is inherently schedule-dependent in
// the low-order float bits, but never in the counters).
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	for _, workers := range []int{1, 4} {
		dict, seqs := ckptCorpus(t, 40, 300, 12)

		base := ckptOptions(workers)
		baseModel, baseStats, err := Train(dict, seqs, base)
		if err != nil {
			t.Fatal(err)
		}
		if baseStats.Pairs == 0 {
			t.Fatal("baseline trained nothing")
		}

		dir := t.TempDir()
		opt := ckptOptions(workers)
		opt.CheckpointDir = dir
		opt.CheckpointEvery = 1 // snapshot at every block barrier
		crashes := 0
		checkpointCrashHook = func(epoch, block int) bool {
			crashes++
			return crashes == 1
		}
		_, _, err = Train(dict, seqs, opt)
		checkpointCrashHook = nil
		if !errors.Is(err, errCrashHook) {
			t.Fatalf("workers=%d: expected injected crash, got %v", workers, err)
		}

		opt.Resume = true
		resModel, resStats, err := Train(dict, seqs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if resStats.Pairs != baseStats.Pairs || resStats.Updates != baseStats.Updates || resStats.Tokens != baseStats.Tokens {
			t.Fatalf("workers=%d: resumed stats %+v != uninterrupted %+v", workers, resStats, baseStats)
		}
		if workers == 1 {
			for i, v := range baseModel.In.Data() {
				if resModel.In.Data()[i] != v {
					t.Fatalf("resumed model diverges at in[%d]", i)
				}
			}
			for i, v := range baseModel.Out.Data() {
				if resModel.Out.Data()[i] != v {
					t.Fatalf("resumed model diverges at out[%d]", i)
				}
			}
		}
	}
}

// Resuming under different hyper-parameters must be refused, not silently
// continued.
func TestCheckpointResumeRefusesMismatchedOptions(t *testing.T) {
	dict, seqs := ckptCorpus(t, 30, 120, 10)
	dir := t.TempDir()
	opt := ckptOptions(1)
	opt.CheckpointDir = dir
	opt.CheckpointEvery = 1
	if _, _, err := Train(dict, seqs, opt); err != nil {
		t.Fatal(err)
	}
	bad := opt
	bad.Resume = true
	bad.LR = opt.LR * 2
	if _, _, err := Train(dict, seqs, bad); err == nil {
		t.Fatal("resume with different LR accepted")
	}
	// Changing only checkpoint control fields must NOT invalidate.
	ok := opt
	ok.Resume = true
	ok.CheckpointEvery = 999999
	if _, _, err := Train(dict, seqs, ok); err != nil {
		t.Fatalf("resume with different cadence refused: %v", err)
	}
}

// A snapshot written before the pair-update kernel changed its arithmetic
// (KernelVersion 1: the fingerprint did not carry a kernel version at all)
// must be refused like any other options change: resuming it would finish
// a run in different arithmetic than it started in, which no uninterrupted
// run reproduces.
func TestCheckpointResumeRefusesOldKernelVersion(t *testing.T) {
	dict, seqs := ckptCorpus(t, 30, 120, 10)
	dir := t.TempDir()
	opt := ckptOptions(1)
	opt.CheckpointDir = dir
	opt.CheckpointEvery = 1
	if _, _, err := Train(dict, seqs, opt); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(checkpoint.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	// The fingerprint exactly as the version-1 code computed it.
	c := opt
	c.CheckpointDir, c.CheckpointEvery, c.Resume = "", 0, false
	old := checkpoint.HashOptions(fmt.Sprintf("%+v", c), dict.Len(), len(seqs), 1)
	if old == snap.OptionsHash {
		t.Fatal("fingerprint does not depend on the kernel version")
	}
	snap.OptionsHash = old
	if err := checkpoint.Save(checkpoint.Path(dir), snap); err != nil {
		t.Fatal(err)
	}
	resume := opt
	resume.Resume = true
	if _, _, err := Train(dict, seqs, resume); !errors.Is(err, checkpoint.ErrOptionsMismatch) {
		t.Fatalf("resume from a version-1 snapshot: got %v, want ErrOptionsMismatch", err)
	}
}

// Resume with an empty checkpoint directory starts fresh (operational
// pattern: always pass -resume; the first run has nothing to resume).
func TestResumeWithoutSnapshotStartsFresh(t *testing.T) {
	dict, seqs := ckptCorpus(t, 30, 120, 10)
	opt := ckptOptions(2)
	opt.CheckpointDir = t.TempDir()
	opt.CheckpointEvery = 1
	opt.Resume = true
	_, st, err := Train(dict, seqs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs == 0 {
		t.Fatal("fresh resume run trained nothing")
	}
}

// A completed run's final snapshot resumes as a no-op that still returns
// the finished counters and model.
func TestResumeAfterCompletionIsNoOp(t *testing.T) {
	dict, seqs := ckptCorpus(t, 30, 120, 10)
	dir := t.TempDir()
	opt := ckptOptions(2)
	opt.CheckpointDir = dir
	opt.CheckpointEvery = 1
	_, first, err := Train(dict, seqs, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Resume = true
	m, again, err := Train(dict, seqs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.Pairs != first.Pairs {
		t.Fatalf("no-op resume changed pairs: %d != %d", again.Pairs, first.Pairs)
	}
	var nonZero bool
	for _, v := range m.In.Data() {
		if v != 0 {
			nonZero = true
			break
		}
	}
	if !nonZero {
		t.Fatal("resumed model is empty")
	}
}
