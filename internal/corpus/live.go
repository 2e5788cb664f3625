package corpus

import (
	"errors"
	"fmt"
)

// LiveConfig shapes a live session stream: the base catalog plus the two
// non-stationarities a daily-retrained production system actually faces —
// brand-new items launching over time (§IV-C2's cold-start case, arriving
// continuously rather than in a nightly batch) and popularity drift within
// a category (yesterday's bestseller slides, a tail item surges).
type LiveConfig struct {
	// Base is the catalog and behaviour configuration at stream start.
	Base Config
	// ReserveItems appends this many not-yet-launched items to the
	// catalog. They carry full side information from day one (a listing
	// exists before the first click) but appear in sessions only after
	// their launch.
	ReserveItems int
	// LaunchEvery launches one reserved item every this many sessions
	// (<=0 with ReserveItems>0 means 1). Launches happen in item-id order,
	// so the arrival schedule is part of the stream's determinism.
	LaunchEvery int
	// DriftEvery advances the popularity-drift phase every this many
	// sessions; each phase rotates which items occupy each leaf's
	// popularity ranks. 0 disables drift.
	DriftEvery int
}

// Live is a deterministic endless session stream over a drifting catalog.
// It is not safe for concurrent use; the ingest loop is its single reader.
type Live struct {
	Cfg LiveConfig
	// Catalog, Pop and Dict describe the full universe — base plus
	// reserved items — so downstream dictionaries and SI tables cover
	// items before they launch (Eq. 6 needs an item's SI tokens the
	// moment it first appears).
	Catalog *Catalog
	Pop     *Population
	Dict    *Dict

	gen      *Generator
	sessions int
	visible  int // items with id < visible have launched
	phase    int // popularity-drift phase
}

// NewLive builds the universe catalog (base + reserved items) and the
// session stream over it.
func NewLive(cfg LiveConfig) (*Live, error) {
	if cfg.ReserveItems < 0 {
		return nil, errors.New("corpus: ReserveItems must be non-negative")
	}
	if cfg.ReserveItems > 0 && cfg.LaunchEvery <= 0 {
		cfg.LaunchEvery = 1
	}
	full := cfg.Base
	full.NumItems += cfg.ReserveItems
	if full.Name != "" {
		full.Name = fmt.Sprintf("%s+live%d", full.Name, cfg.ReserveItems)
	}
	cat, err := BuildCatalog(full)
	if err != nil {
		return nil, err
	}
	pop, err := BuildPopulation(full, cat)
	if err != nil {
		return nil, err
	}
	return &Live{
		Cfg:     cfg,
		Catalog: cat,
		Pop:     pop,
		Dict:    cat.BuildDict(pop),
		gen:     NewGenerator(cat, pop),
		visible: cfg.Base.NumItems,
	}, nil
}

// Next produces the next session. The base generator samples over the full
// universe; two deterministic remaps then impose the stream's dynamics:
// the drift phase rotates item identities within each leaf's popularity
// order, and any item that has not launched yet is replaced by the
// nearest-rank launched item of the same leaf.
func (lv *Live) Next() Session {
	s := lv.gen.Next()
	for i, it := range s.Items {
		s.Items[i] = lv.remap(it)
	}
	lv.sessions++
	if lv.Cfg.LaunchEvery > 0 && lv.sessions%lv.Cfg.LaunchEvery == 0 &&
		lv.visible < len(lv.Catalog.Items) {
		lv.visible++
	}
	if lv.Cfg.DriftEvery > 0 && lv.sessions%lv.Cfg.DriftEvery == 0 {
		lv.phase++
	}
	return s
}

func (lv *Live) remap(it int32) int32 {
	leaf := lv.Catalog.LeafOf(it)
	items := lv.Catalog.LeafItems[leaf]
	if lv.phase > 0 && len(items) > 1 {
		// Drift: the item at popularity rank r is now whoever sits r+phase
		// positions down the leaf's browse order. Popularity mass stays on
		// the same ranks; the identities holding them rotate.
		r := (int(lv.Catalog.RankInLeaf[it]) + lv.phase) % len(items)
		it = items[r]
	}
	if int(it) < lv.visible {
		return it
	}
	// Unlaunched: stand in the nearest launched item of the same leaf,
	// scanning outward from the same rank so the substitute has a similar
	// popularity position. Deterministic fallback if the leaf is all
	// reserved items.
	r := int(lv.Catalog.RankInLeaf[it])
	for d := 1; d < len(items); d++ {
		for _, cand := range [2]int{r - d, r + d} {
			if cand >= 0 && cand < len(items) && int(items[cand]) < lv.visible {
				return items[cand]
			}
		}
	}
	return it % int32(lv.visible)
}

// Launched returns the reserved items that have launched so far, in launch
// order.
func (lv *Live) Launched() []int32 {
	out := make([]int32, 0, lv.visible-lv.Cfg.Base.NumItems)
	for id := lv.Cfg.Base.NumItems; id < lv.visible; id++ {
		out = append(out, int32(id))
	}
	return out
}

// Dataset wraps the stream's universe as a session-less Dataset, for
// serving-tier construction (catalog metadata, SI tables, demographics).
func (lv *Live) Dataset() *Dataset {
	return &Dataset{
		Cfg:     lv.Catalog.Cfg,
		Catalog: lv.Catalog,
		Pop:     lv.Pop,
		Dict:    lv.Dict,
	}
}
