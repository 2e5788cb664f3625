// Package alias implements Walker's alias method for O(1) sampling from an
// arbitrary discrete distribution.
//
// SISG's negative sampling draws from the unigram distribution raised to the
// 0.75 power (§III-C of the paper). With vocabularies in the millions, the
// original word2vec approach of materializing a 10^8-entry table costs too
// much memory per worker; the alias method needs exactly 2 words per token
// and still samples in constant time. Each distributed worker in
// internal/dist builds one Table over its local partition ∪ shared hot set,
// mirroring the paper's "every worker maintains its own noise distribution".
package alias

import (
	"errors"
	"slices"

	"sisg/internal/rng"
)

// Table is an alias table. It is safe for concurrent Sample calls as long
// as each caller supplies its own RNG and nobody calls Rebuild.
type Table struct {
	prob  []float64 // probability of keeping column i rather than its alias
	alias []int32

	// Build scratch, kept only by a table that is rebuilt in place.
	scaled       []float64
	small, large []int32
}

// ErrEmpty is returned when a table is built from no positive weights.
var ErrEmpty = errors.New("alias: no positive weights")

// New builds an alias table from the given non-negative weights. Weights
// need not be normalized. Zero-weight entries are valid and are never
// sampled. An error is returned if the weights sum to zero or any weight is
// negative or NaN.
func New(weights []float64) (*Table, error) {
	t := new(Table)
	if err := t.Rebuild(weights); err != nil {
		return nil, err
	}
	t.scaled, t.small, t.large = nil, nil, nil // built once: no scratch to keep
	return t, nil
}

// Rebuild replaces the table's distribution with the one New(weights)
// would build — the same table, entry for entry — reusing the table's
// storage, so a caller that re-derives its distribution periodically
// allocates only when the outcome count outgrows it. On error the table is
// unchanged. Not safe concurrently with Sample.
func (t *Table) Rebuild(weights []float64) error {
	n := len(weights)
	if n == 0 {
		return ErrEmpty
	}
	sum := 0.0
	for _, w := range weights {
		if w < 0 || w != w {
			return errors.New("alias: negative or NaN weight")
		}
		sum += w
	}
	if sum == 0 {
		return ErrEmpty
	}

	// Grown like append grows: a table rebuilt as outcomes trickle in
	// reallocates a logarithmic number of times, not every time. Every
	// entry of prob and alias is written below, so stale contents are fine.
	t.prob = slices.Grow(t.prob[:0], n)[:n]
	t.alias = slices.Grow(t.alias[:0], n)[:n]
	t.scaled = slices.Grow(t.scaled[:0], n)[:n]
	t.small = slices.Grow(t.small[:0], n)
	t.large = slices.Grow(t.large[:0], n)
	// Scaled probabilities: p[i]*n, split into "small" (<1) and "large" (>=1).
	// The two stacks never hold more than n indices between them.
	scaled, small, large := t.scaled, t.small, t.large
	scale := float64(n) / sum
	for i, w := range weights {
		scaled[i] = w * scale
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Due to floating point, leftovers get probability 1.
	for _, l := range large {
		t.prob[l] = 1
		t.alias[l] = l
	}
	for _, s := range small {
		t.prob[s] = 1
		t.alias[s] = s
	}
	return nil
}

// Sample draws one index distributed according to the table's weights.
func (t *Table) Sample(r *rng.RNG) int {
	i := r.Intn(len(t.prob))
	if r.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}

// N returns the number of outcomes.
func (t *Table) N() int { return len(t.prob) }

// MemoryBytes reports the approximate heap footprint of the table, used by
// the distributed engine's accounting.
func (t *Table) MemoryBytes() int {
	return len(t.prob)*8 + len(t.alias)*4
}
