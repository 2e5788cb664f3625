package corpus

import (
	"fmt"
	"math"
	"strings"

	"sisg/internal/rng"
)

// Genders enumerates the gender feature values; the paper notes "Gender
// takes only three values: female, male, null".
var Genders = [3]string{"F", "M", "null"}

// UserType is one fine-grained user categorization (§II-B): a cross of
// gender, age bucket and purchase power, refined by a tag combination
// ("married_haschildren_hascar"-style indicators).
type UserType struct {
	Gender int8   // index into Genders
	Age    int8   // age bucket index
	Power  int8   // purchase power tier, aligned with item price tiers
	Tags   uint16 // bitmask over tagNames
	Weight float64
}

var tagNames = []string{"married", "haschildren", "hascar", "student", "urban", "sports"}

// Token renders the user type in the paper's
// ut_[gender]_[age]_[tag1]_[tag2]... form, e.g. "ut_F_19-25_married_hascar".
// Purchase power is encoded as a p<tier> tag so it survives round-trips.
func (u *UserType) Token() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ut_%s_%s_p%d", Genders[u.Gender], ageBucketName(int(u.Age)), u.Power)
	for t, name := range tagNames {
		if u.Tags&(1<<t) != 0 {
			b.WriteByte('_')
			b.WriteString(name)
		}
	}
	return b.String()
}

func ageBucketName(b int) string {
	lo := 16 + 5*b
	return fmt.Sprintf("%d-%d", lo, lo+4)
}

// Population is the full user-type universe plus the latent preference
// structure driving session generation.
type Population struct {
	Types []UserType

	// samplers[t] draws a leaf for user type t by its affinity (already
	// multiplied by leaf popularity).
	samplers    []*weightSampler
	typeSampler *weightSampler
}

// BuildPopulation derives the user-type universe for cfg and precomputes
// each type's category affinity against the given catalog.
//
// Affinity design: every (gender, age) pair gets a deterministic pseudo-
// random score over top categories; a user type's weight for a leaf is
// leafPopularity × exp(score(gender,age, top(leaf))). Purchase power does
// not move category choice (it gates brand tier during the walk instead),
// mirroring how power shows up in the paper's Figure 4 (same categories,
// pricier brands).
func BuildPopulation(cfg Config, cat *Catalog) (*Population, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed ^ 0x0b5e55ed)

	// Enumerate types: gender × age × power × tag-combo. Tag combos are a
	// fixed deterministic list of bitmasks.
	combos := make([]uint16, cfg.NumTagCombos)
	for i := range combos {
		combos[i] = uint16(r.Uint32()) & ((1 << len(tagNames)) - 1)
	}
	p := &Population{}
	for g := 0; g < len(Genders); g++ {
		for a := 0; a < cfg.NumAgeBuckets; a++ {
			for pw := 0; pw < cfg.NumPowers; pw++ {
				for _, tags := range combos {
					w := typePopularity(g, a, pw)
					p.Types = append(p.Types, UserType{
						Gender: int8(g), Age: int8(a), Power: int8(pw),
						Tags: tags, Weight: w,
					})
				}
			}
		}
	}
	dedupeTypes(p)

	// Top-category scores: a gender/age base profile sharpened by a
	// per-type perturbation, so every user type is a coherent niche
	// audience concentrated on a few top categories. Coherence is what
	// makes the user-type token informative: a type that browses
	// everything teaches the embedding nothing.
	scores := make([][]float64, len(Genders)*cfg.NumAgeBuckets)
	for i := range scores {
		scores[i] = make([]float64, cfg.NumTopCats)
		for t := range scores[i] {
			scores[i][t] = r.NormFloat64() * 1.6
		}
	}
	p.samplers = make([]*weightSampler, len(p.Types))
	weights := make([]float64, len(p.Types))
	for t := range p.Types {
		ut := &p.Types[t]
		sc := scores[int(ut.Gender)*cfg.NumAgeBuckets+int(ut.Age)]
		tr := rng.New(cfg.Seed ^ uint64(t)<<20 ^ 0x7a65)
		perturb := make([]float64, cfg.NumTopCats)
		for top := range perturb {
			perturb[top] = 1.3 * tr.NormFloat64()
		}
		aff := make([]float64, cat.NumLeaves())
		for leaf := range aff {
			top := cat.LeafTop[leaf]
			aff[leaf] = cat.LeafWeight[leaf] * math.Exp(2.6*(sc[top]+perturb[top]))
		}
		s, err := newWeightSampler(aff)
		if err != nil {
			return nil, fmt.Errorf("corpus: affinity sampler for type %d: %w", t, err)
		}
		p.samplers[t] = s
		weights[t] = ut.Weight
	}
	ts, err := newWeightSampler(weights)
	if err != nil {
		return nil, fmt.Errorf("corpus: user-type sampler: %w", err)
	}
	p.typeSampler = ts
	return p, nil
}

// typePopularity skews the type distribution: mid-age buckets and the two
// definite genders dominate, and mid purchase power is the most common.
func typePopularity(g, a, pw int) float64 {
	w := 1.0
	if g == 2 { // "null" gender is rare
		w *= 0.1
	}
	w *= 1 / (1 + math.Abs(float64(a)-2.5)) // ages 26-35 most common
	if pw == 1 {
		w *= 1.5
	}
	return w
}

func dedupeTypes(p *Population) {
	seen := make(map[string]bool, len(p.Types))
	out := p.Types[:0]
	for _, t := range p.Types {
		k := t.Token()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, t)
	}
	p.Types = out
}

// SampleType draws a user type index by popularity.
func (p *Population) SampleType(r *rng.RNG) int32 {
	return int32(p.typeSampler.sample(r))
}

// SampleLeaf draws a starting leaf category for user type t.
func (p *Population) SampleLeaf(t int32, r *rng.RNG) int32 {
	return int32(p.samplers[t].sample(r))
}

// StyleOffset returns the user type's style preference as an offset into
// its current leaf's typical style range (leaves draw styles from
// (leaf + [0,4)) mod NumStyles; see catalog construction). Two users of the
// same type prefer the same style lane of any leaf, which is the
// cross-session taste signal the user-type token carries.
func (p *Population) StyleOffset(t int32) int {
	u := &p.Types[t]
	h := uint32(u.Gender)*2654435761 + uint32(u.Age)*40503 + uint32(u.Tags)*97
	return int(h % 4)
}

// TypesMatching returns the indices of all user types with the given gender
// and age bucket (and any power/tags) — the cold-start user recipe of
// §IV-C1 averages the vectors of exactly this set. Pass -1 to leave a field
// unconstrained.
func (p *Population) TypesMatching(gender, age, power int) []int32 {
	var out []int32
	for i := range p.Types {
		t := &p.Types[i]
		if gender >= 0 && int(t.Gender) != gender {
			continue
		}
		if age >= 0 && int(t.Age) != age {
			continue
		}
		if power >= 0 && int(t.Power) != power {
			continue
		}
		out = append(out, int32(i))
	}
	return out
}
