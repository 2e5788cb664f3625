package cacheline

import "testing"

type state struct {
	a, b uint64
	c    [3]int32
}

func TestAllocIsolatesItsBlock(t *testing.T) {
	// Small blocks from one size class sit back to back: if the pads did
	// not cover a whole line, neighbours would share one.
	var owners [][]Span
	for i := 0; i < 64; i++ {
		st, ints, floats := Alloc[state](5, 3)
		if len(ints) != 5 || cap(ints) != 5 || len(floats) != 3 || cap(floats) != 3 {
			t.Fatalf("scratch len/cap %d/%d and %d/%d, want 5/5 and 3/3", len(ints), cap(ints), len(floats), cap(floats))
		}
		if *st != (state{}) || ints[4] != 0 || floats[2] != 0 {
			t.Fatal("block not zeroed")
		}
		owners = append(owners, []Span{SpanOf(st), SliceSpan(ints), SliceSpan(floats)})
	}
	if err := Shared(owners); err != nil {
		t.Fatal(err)
	}
}

// Shared is what the trainers' layout tests rely on: it must see the
// sharing that plain allocation produces.
func TestSharedSeesNeighbours(t *testing.T) {
	var owners [][]Span
	for i := 0; i < 64; i++ {
		owners = append(owners, []Span{SpanOf(new(state))}) // 32 bytes each
	}
	if Shared(owners) == nil {
		t.Fatal("64 unpadded 32-byte objects share no cache line")
	}
}

func TestAllocEmptyScratch(t *testing.T) {
	st, ints, floats := Alloc[state](0, 0)
	if st == nil || len(ints) != 0 || len(floats) != 0 {
		t.Fatalf("Alloc(0, 0) = %p, %v, %v", st, ints, floats)
	}
	if SliceSpan(ints).Overlaps(SpanOf(st)) {
		t.Fatal("an empty span overlaps")
	}
}

func TestCeilPow2(t *testing.T) {
	for n, want := range map[int]int{0: 0, 1: 1, 2: 2, 3: 4, 5: 8, 64: 64, 65: 128} {
		if got := ceilPow2(n); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSpanOverlaps(t *testing.T) {
	for _, c := range []struct {
		a, b Span
		want bool
	}{
		{Span{0, 0}, Span{0, 0}, true},
		{Span{0, 1}, Span{1, 3}, true},
		{Span{0, 1}, Span{2, 3}, false},
		{Span{4, 4}, Span{2, 3}, false},
		{Span{First: 1}, Span{0, 5}, false},
	} {
		if got := c.a.Overlaps(c.b); got != c.want || c.b.Overlaps(c.a) != c.want {
			t.Errorf("%+v overlaps %+v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	var x [16]uint64 // 128 bytes: two or three lines, whatever the alignment
	s := SliceSpan(x[:])
	if n := s.Last - s.First + 1; n < 2 || n > 3 {
		t.Fatalf("128 bytes span %d lines", n)
	}
	if s := SliceSpan(x[:1]); s.First != s.Last {
		t.Fatalf("8 aligned bytes span lines %d..%d", s.First, s.Last)
	}
}
