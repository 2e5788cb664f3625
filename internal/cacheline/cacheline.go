// Package cacheline gives each parallel trainer worker heap state that
// shares no cache line with anything another worker writes.
//
// A Hogwild, TNS or EGES worker writes its RNG, its negative-draw scratch
// and its counters on every pair. Allocated one by one, two workers' small
// objects land side by side in the same size class (two 32-byte RNGs 32
// bytes apart), so every draw by one worker evicts a line the other is
// writing, and two workers train no faster than one. A worker whose
// pair-path state is one padded block writes only lines it alone owns.
package cacheline

import (
	"fmt"
	"math/bits"
	"reflect"
)

// Size is the cache-line size the pads assume: 64 bytes on the amd64 and
// arm64 cores the trainers run on.
const Size = 64

// Alloc returns a zeroed T and zeroed scratch of ints int32s and floats
// float32s, laid out in one heap block as
//
//	[Size pad | T | ints | floats | Size pad]
//
// Every cache line that holds a byte of T or of the scratch lies inside
// the block, so it holds no byte of any other allocation. The slices'
// capacity is their length: an append past it leaves the block.
//
// reflect keeps every struct type it builds for the life of the process,
// and callers size scratch by their input (the longest sequence), so the
// arrays are rounded up to a power of two: a few types, however many runs.
func Alloc[T any](ints, floats int) (*T, []int32, []float32) {
	pad := reflect.TypeOf([Size]byte{})
	b := reflect.New(reflect.StructOf([]reflect.StructField{
		{Name: "Head", Type: pad},
		{Name: "State", Type: reflect.TypeOf((*T)(nil)).Elem()},
		{Name: "Ints", Type: reflect.ArrayOf(ceilPow2(ints), reflect.TypeOf(int32(0)))},
		{Name: "Floats", Type: reflect.ArrayOf(ceilPow2(floats), reflect.TypeOf(float32(0)))},
		{Name: "Tail", Type: pad},
	})).Elem()
	return b.Field(1).Addr().Interface().(*T),
		b.Field(2).Slice3(0, ints, ints).Interface().([]int32),
		b.Field(3).Slice3(0, floats, floats).Interface().([]float32)
}

func ceilPow2(n int) int {
	if n <= 1 {
		return n
	}
	return 1 << bits.Len(uint(n-1))
}

// Span is the cache lines First..Last (line numbers: address / Size)
// that hold an object's bytes. It is what the trainers' layout tests
// compare between workers. An empty Span overlaps nothing.
type Span struct{ First, Last uintptr }

// SpanOf returns the lines holding the bytes of *p.
func SpanOf[T any](p *T) Span {
	return span(reflect.ValueOf(p).Pointer(), reflect.TypeOf(p).Elem().Size())
}

// SliceSpan returns the lines holding the bytes of s's elements.
func SliceSpan[E any](s []E) Span {
	return span(reflect.ValueOf(s).Pointer(), uintptr(len(s))*reflect.TypeOf(s).Elem().Size())
}

func span(addr, n uintptr) Span {
	if n == 0 {
		return Span{First: 1}
	}
	return Span{First: addr / Size, Last: (addr + n - 1) / Size}
}

// Overlaps reports whether some cache line holds bytes of both spans.
func (s Span) Overlaps(o Span) bool {
	return s.First <= s.Last && o.First <= o.Last && s.First <= o.Last && o.First <= s.Last
}

// Shared returns an error naming the first cache line that holds bytes of
// two owners — owners[i] is the spans of what owner i writes — or nil if
// every line belongs to at most one owner.
func Shared(owners [][]Span) error {
	for i, a := range owners {
		for j := i + 1; j < len(owners); j++ {
			for x, sa := range a {
				for y, sb := range owners[j] {
					if sa.Overlaps(sb) {
						return fmt.Errorf("owner %d's object %d (lines %#x..%#x) and owner %d's object %d (lines %#x..%#x) share a cache line",
							i, x, sa.First, sa.Last, j, y, sb.First, sb.Last)
					}
				}
			}
		}
	}
	return nil
}
