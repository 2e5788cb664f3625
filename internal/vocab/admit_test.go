package vocab

import "testing"

func TestAdmitterAdmitsOnThreshold(t *testing.T) {
	a, err := NewAdmitter(AdmitConfig{Budget: 10, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, admitted, _ := a.Observe(42); admitted {
			t.Fatalf("token admitted after %d observations, threshold 3", i+1)
		}
	}
	row, admitted, isNew := a.Observe(42)
	if !admitted || !isNew || row != 0 {
		t.Fatalf("third observation: row=%d admitted=%v isNew=%v, want 0/true/true", row, admitted, isNew)
	}
	// Subsequent observations are admitted but not new.
	row, admitted, isNew = a.Observe(42)
	if !admitted || isNew || row != 0 {
		t.Fatalf("fourth observation: row=%d admitted=%v isNew=%v, want 0/true/false", row, admitted, isNew)
	}
	if got := a.Count(0); got != 4 {
		t.Fatalf("count %d, want 4", got)
	}
}

func TestAdmitterRespectsBudget(t *testing.T) {
	a, err := NewAdmitter(AdmitConfig{Budget: 5, MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	for tok := ID(0); tok < 20; tok++ {
		a.Observe(tok)
	}
	if a.Len() != 5 {
		t.Fatalf("admitted %d tokens, budget 5", a.Len())
	}
	// First five tokens got the rows, in order.
	for r := int32(0); r < 5; r++ {
		if a.tokens[r] != ID(r) {
			t.Fatalf("row %d holds token %d, want %d", r, a.tokens[r], r)
		}
	}
	if a.Denied() != 15 {
		t.Fatalf("denied %d, want 15", a.Denied())
	}
	// An already-admitted token still trains while the budget is full.
	if _, admitted, _ := a.Observe(3); !admitted {
		t.Fatal("admitted token rejected after budget filled")
	}
}

func TestAdmitterDeterministic(t *testing.T) {
	stream := make([]ID, 0, 3000)
	state := uint64(99)
	for i := 0; i < 3000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		stream = append(stream, ID(state>>33%200))
	}
	run := func() []ID {
		a, err := NewAdmitter(AdmitConfig{Budget: 64, MinCount: 2, SketchWidth: 256, DecayEvery: 500})
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range stream {
			a.Observe(tok)
		}
		return append([]ID(nil), a.tokens...)
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("runs admitted %d vs %d tokens", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("row %d: token %d vs %d", i, first[i], second[i])
		}
	}
	if len(first) == 0 {
		t.Fatal("no tokens admitted")
	}
}

func TestAdmitterDecayForgetsOldPopularity(t *testing.T) {
	a, err := NewAdmitter(AdmitConfig{Budget: 100, MinCount: 8, SketchWidth: 256, DecayEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Token 7 accumulates sketch weight just below the threshold, then the
	// stream moves on; by the time it reappears, decay must have cut its
	// estimate so it does not coast to admission on stale counts.
	for i := 0; i < 7; i++ {
		a.Observe(7)
	}
	for i := 0; i < 640; i++ {
		a.Observe(ID(1000 + i)) // disjoint tail traffic; drives decay cycles
	}
	if _, admitted, _ := a.Observe(7); admitted {
		t.Fatal("token admitted on stale pre-decay counts")
	}
}
