// Package vocab implements the token dictionary shared by every trainer in
// this repository.
//
// SISG's key trick (§II-B of the paper) is that items, item side information
// (SI) and user types are all just "words" in one vocabulary: an enriched
// session such as
//
//	item_17 leaf_category_1234 brand_55 ... item_99 ... ut_F_19-25_t1
//
// is fed to a standard SGNS implementation. The dictionary therefore tags
// every token with a Kind so that downstream stages (evaluation retrieves
// only items; ATNS replicates mostly SI tokens; HBGP partitions only items)
// can filter without parsing strings. The hot training paths never touch
// strings at all: tokens are dense int32 IDs assigned at build time.
package vocab

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ID is a dense token identifier. IDs are assigned contiguously from 0 in
// insertion order and are stable for the lifetime of a Dict.
type ID = int32

// None marks the absence of a token.
const None ID = -1

// Kind classifies a token. The training algorithms are kind-agnostic
// (everything is a word), but evaluation and partitioning are not.
type Kind uint8

const (
	// KindItem is a catalog item ("item_123").
	KindItem Kind = iota
	// KindSI is an item side-information value ("leaf_category_1234").
	KindSI
	// KindUserType is a user metadata cross-feature token
	// ("ut_F_19-25_married_hascar").
	KindUserType
)

func (k Kind) String() string {
	switch k {
	case KindItem:
		return "item"
	case KindSI:
		return "si"
	case KindUserType:
		return "usertype"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Entry is one vocabulary row.
type Entry struct {
	Name  string
	Kind  Kind
	Count uint64 // occurrences in the training corpus
}

// Dict maps token names to dense IDs and back, and records corpus
// frequencies. Building is single-threaded; once built, all read methods are
// safe for concurrent use.
type Dict struct {
	entries []Entry
	index   map[string]ID
	totals  [3]uint64 // total count per Kind
}

// NewDict returns an empty dictionary with capacity for n tokens.
func NewDict(n int) *Dict {
	return &Dict{
		entries: make([]Entry, 0, n),
		index:   make(map[string]ID, n),
	}
}

// Add inserts a token or, if it exists, increases its count. It returns the
// token's ID. Adding an existing name with a different Kind panics: that is
// always a namespace bug in the caller.
func (d *Dict) Add(name string, kind Kind, count uint64) ID {
	if id, ok := d.index[name]; ok {
		e := &d.entries[id]
		if e.Kind != kind {
			panic(fmt.Sprintf("vocab: token %q re-added as %v, was %v", name, kind, e.Kind))
		}
		e.Count += count
		d.totals[kind] += count
		return id
	}
	id := ID(len(d.entries))
	d.entries = append(d.entries, Entry{Name: name, Kind: kind, Count: count})
	d.index[name] = id
	d.totals[kind] += count
	return id
}

// AddCount increments the count of an existing ID. It is the hot-path
// counterpart of Add for callers that already hold IDs.
func (d *Dict) AddCount(id ID, n uint64) {
	e := &d.entries[id]
	e.Count += n
	d.totals[e.Kind] += n
}

// Lookup returns the ID for name, or (None, false) if absent.
func (d *Dict) Lookup(name string) (ID, bool) {
	id, ok := d.index[name]
	if !ok {
		return None, false
	}
	return id, true
}

// Len returns the number of tokens.
func (d *Dict) Len() int { return len(d.entries) }

// Name returns the token name for id.
func (d *Dict) Name(id ID) string { return d.entries[id].Name }

// KindOf returns the Kind of id.
func (d *Dict) KindOf(id ID) Kind { return d.entries[id].Kind }

// Count returns the corpus frequency of id.
func (d *Dict) Count(id ID) uint64 { return d.entries[id].Count }

// TotalCount returns the summed frequency of all tokens of the given kind.
func (d *Dict) TotalCount(kind Kind) uint64 { return d.totals[kind] }

// TotalTokens returns the summed frequency over all kinds — the corpus
// length in tokens (the "#Tokens" row of Table II).
func (d *Dict) TotalTokens() uint64 {
	return d.totals[0] + d.totals[1] + d.totals[2]
}

// CountByKind returns how many distinct tokens exist per kind.
func (d *Dict) CountByKind() (items, si, userTypes int) {
	for i := range d.entries {
		switch d.entries[i].Kind {
		case KindItem:
			items++
		case KindSI:
			si++
		case KindUserType:
			userTypes++
		}
	}
	return
}

// Save writes the dictionary as tab-separated "name kind count" lines,
// one per token, in ID order. The format is deliberately trivial so other
// tools (and humans) can inspect vocabularies.
func (d *Dict) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := range d.entries {
		e := &d.entries[i]
		if _, err := fmt.Fprintf(bw, "%s\t%d\t%d\n", e.Name, e.Kind, e.Count); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a dictionary written by Save. IDs are reassigned in file
// order, which matches the original IDs.
func Load(r io.Reader) (*Dict, error) {
	d := NewDict(1024)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		parts := strings.Split(sc.Text(), "\t")
		if len(parts) != 3 {
			return nil, fmt.Errorf("vocab: line %d: want 3 fields, got %d", line, len(parts))
		}
		kind, err := strconv.ParseUint(parts[1], 10, 8)
		if err != nil || kind > uint64(KindUserType) {
			return nil, fmt.Errorf("vocab: line %d: bad kind %q", line, parts[1])
		}
		count, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("vocab: line %d: bad count %q: %v", line, parts[2], err)
		}
		if _, ok := d.index[parts[0]]; ok {
			return nil, fmt.Errorf("vocab: line %d: duplicate token %q", line, parts[0])
		}
		d.Add(parts[0], Kind(kind), count)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("vocab: %w", err)
	}
	return d, nil
}
