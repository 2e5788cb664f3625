// Streaming vocabulary admission.
//
// A live ingest loop cannot afford one embedding row per token it has ever
// seen: the matrix is the memory budget, and the stream's long tail would
// exhaust any budget in hours. The Admitter implements the classic sketch
// answer — count every token approximately in a count-min sketch, and admit
// a token to the real vocabulary (give it a row) only once its estimated
// frequency clears a threshold, while a lossy-counting style periodic decay
// ages counts so the sketch tracks the *recent* distribution under drift.
//
// Everything is deterministic: fixed hash seeds, single-threaded Observe,
// and decay at exact observation counts. Two runs over the same stream
// admit the same tokens to the same rows in the same order.

package vocab

import "fmt"

// AdmitConfig sizes the admission sketch. The zero value of each field gets
// a usable default from NewAdmitter.
type AdmitConfig struct {
	// Budget is the maximum number of admitted tokens — the embedding
	// matrix's row capacity. Once full, no further token is admitted
	// (existing tokens keep training). Must be positive.
	Budget int
	// MinCount is the estimated occurrence count a token needs before it
	// earns a row. 1 admits on first sight (every observed token is
	// servable immediately); higher values keep one-off noise out of the
	// budget. <=0 means 1.
	MinCount uint32
	// SketchWidth is the number of counters per sketch row, rounded up to
	// a power of two. <=0 means 1<<15.
	SketchWidth int
	// SketchDepth is the number of independent hash rows. <=0 means 4.
	SketchDepth int
	// DecayEvery halves every sketch counter after this many observations
	// (lossy-counting aging: old popularity stops counting toward
	// admission, so the sketch follows drift). 0 disables decay.
	DecayEvery uint64
}

func (c AdmitConfig) withDefaults() AdmitConfig {
	if c.MinCount == 0 {
		c.MinCount = 1
	}
	if c.SketchWidth <= 0 {
		c.SketchWidth = 1 << 15
	}
	// Round up to a power of two so hashes mask instead of mod.
	w := 1
	for w < c.SketchWidth {
		w <<= 1
	}
	c.SketchWidth = w
	if c.SketchDepth <= 0 {
		c.SketchDepth = 4
	}
	return c
}

// admitSeeds are the fixed per-row hash seeds; changing them changes which
// tokens collide, so they are constants, not configuration.
var admitSeeds = [...]uint64{
	0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0xd6e8feb86659fd93,
	0xa5a5a5a5a5a5a5a5, 0xc3c3c3c3c3c3c3c3, 0x0123456789abcdef, 0xfedcba9876543210,
}

// Admitter decides, token by token, which stream tokens deserve an
// embedding row. It is NOT safe for concurrent use: the ingest loop is the
// single writer, and snapshots copy what they need under that loop.
type Admitter struct {
	cfg    AdmitConfig
	sketch [][]uint32 // depth × width approximate counters
	mask   uint64

	rowOf  map[ID]int32 // admitted token -> row
	tokens []ID         // row -> token, in admission order
	counts []uint64     // exact per-row counts since admission

	observed uint64 // total observations
	denied   uint64 // observations of unadmitted tokens while budget-full
}

// NewAdmitter returns an admitter with the given budget and sketch shape.
func NewAdmitter(cfg AdmitConfig) (*Admitter, error) {
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("vocab: admission budget must be positive, got %d", cfg.Budget)
	}
	cfg = cfg.withDefaults()
	if cfg.SketchDepth > len(admitSeeds) {
		return nil, fmt.Errorf("vocab: sketch depth %d exceeds %d", cfg.SketchDepth, len(admitSeeds))
	}
	a := &Admitter{
		cfg:    cfg,
		sketch: make([][]uint32, cfg.SketchDepth),
		mask:   uint64(cfg.SketchWidth - 1),
		rowOf:  make(map[ID]int32, cfg.Budget),
		tokens: make([]ID, 0, cfg.Budget),
		counts: make([]uint64, 0, cfg.Budget),
	}
	for d := range a.sketch {
		a.sketch[d] = make([]uint32, cfg.SketchWidth)
	}
	return a, nil
}

func admitHash(seed uint64, tok ID) uint64 {
	z := seed + uint64(uint32(tok))*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Observe counts one occurrence of tok and returns its row and whether it
// is admitted. isNew is true exactly once per admitted token: on the
// observation that admitted it — the caller's cue to initialize (and, for
// items, Eq. 6-seed) the row before any gradient touches it.
func (a *Admitter) Observe(tok ID) (row int32, admitted, isNew bool) {
	a.observed++
	if a.cfg.DecayEvery > 0 && a.observed%a.cfg.DecayEvery == 0 {
		a.decay()
	}
	if r, ok := a.rowOf[tok]; ok {
		a.counts[r]++
		return r, true, false
	}
	// Conservative count-min update: only the minimal counters advance,
	// which tightens the estimate without losing the no-undercount bound.
	min := uint32(1<<32 - 1)
	for d := range a.sketch {
		c := a.sketch[d][admitHash(admitSeeds[d], tok)&a.mask]
		if c < min {
			min = c
		}
	}
	est := min + 1
	for d := range a.sketch {
		slot := &a.sketch[d][admitHash(admitSeeds[d], tok)&a.mask]
		if *slot < est {
			*slot = est
		}
	}
	if est < a.cfg.MinCount {
		return -1, false, false
	}
	if len(a.tokens) >= a.cfg.Budget {
		a.denied++
		return -1, false, false
	}
	r := int32(len(a.tokens))
	a.rowOf[tok] = r
	a.tokens = append(a.tokens, tok)
	a.counts = append(a.counts, uint64(est))
	return r, true, true
}

func (a *Admitter) decay() {
	for d := range a.sketch {
		row := a.sketch[d]
		for i := range row {
			row[i] >>= 1
		}
	}
}

// Row returns the row of an admitted token.
func (a *Admitter) Row(tok ID) (int32, bool) {
	r, ok := a.rowOf[tok]
	return r, ok
}

// Len returns how many tokens are admitted.
func (a *Admitter) Len() int { return len(a.tokens) }

// Budget returns the row capacity.
func (a *Admitter) Budget() int { return a.cfg.Budget }

// Count returns the exact occurrence count of row since its admission
// (seeded with the sketch estimate at admission time).
func (a *Admitter) Count(row int32) uint64 { return a.counts[row] }

// Denied returns how many observations of unadmitted tokens arrived after
// the budget filled — the stream the vocabulary is refusing to learn.
func (a *Admitter) Denied() uint64 { return a.denied }
