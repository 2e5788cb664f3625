package vocab

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func buildTestDict() *Dict {
	d := NewDict(8)
	d.Add("item_0", KindItem, 10)
	d.Add("item_1", KindItem, 5)
	d.Add("leaf_category_7", KindSI, 15)
	d.Add("brand_3", KindSI, 2)
	d.Add("ut_F_21-25_p1", KindUserType, 8)
	return d
}

func TestAddAndLookup(t *testing.T) {
	d := buildTestDict()
	if d.Len() != 5 {
		t.Fatalf("Len = %d", d.Len())
	}
	id, ok := d.Lookup("item_1")
	if !ok || id != 1 {
		t.Fatalf("Lookup(item_1) = %d, %v", id, ok)
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) succeeded")
	}
	if d.Name(2) != "leaf_category_7" || d.KindOf(2) != KindSI || d.Count(2) != 15 {
		t.Fatalf("entry 2 wrong: %+v", d.entries[2])
	}
}

func TestAddExistingAccumulates(t *testing.T) {
	d := buildTestDict()
	id := d.Add("item_0", KindItem, 7)
	if id != 0 {
		t.Fatalf("re-add returned id %d", id)
	}
	if d.Count(0) != 17 {
		t.Fatalf("count = %d, want 17", d.Count(0))
	}
}

func TestAddKindConflictPanics(t *testing.T) {
	d := buildTestDict()
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	d.Add("item_0", KindSI, 1)
}

func TestAddCountAndTotals(t *testing.T) {
	d := buildTestDict()
	d.AddCount(0, 5)
	if d.Count(0) != 15 {
		t.Fatalf("AddCount: %d", d.Count(0))
	}
	if d.TotalCount(KindItem) != 20 {
		t.Fatalf("item total = %d", d.TotalCount(KindItem))
	}
	if d.TotalTokens() != 20+17+8 {
		t.Fatalf("TotalTokens = %d", d.TotalTokens())
	}
}

func TestCountByKindAndIDs(t *testing.T) {
	d := buildTestDict()
	items, si, ut := d.CountByKind()
	if items != 2 || si != 2 || ut != 1 {
		t.Fatalf("CountByKind = %d %d %d", items, si, ut)
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	d := buildTestDict()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("loaded Len = %d", got.Len())
	}
	for i := 0; i < d.Len(); i++ {
		a, b := d.entries[ID(i)], got.entries[ID(i)]
		if a != b {
			t.Fatalf("entry %d: %+v != %+v", i, a, b)
		}
	}
}

func TestSaveLoadProperty(t *testing.T) {
	f := func(names []string, counts []uint16) bool {
		d := NewDict(len(names))
		for i, n := range names {
			n = strings.Map(func(r rune) rune {
				if r == '\t' || r == '\n' || r == '\r' {
					return '_'
				}
				return r
			}, n)
			if n == "" {
				continue
			}
			c := uint64(0)
			if i < len(counts) {
				c = uint64(counts[i])
			}
			d.Add(n, Kind(i%3), c)
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		if got.Len() != d.Len() {
			return false
		}
		for i := 0; i < d.Len(); i++ {
			if d.entries[ID(i)] != got.entries[ID(i)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		"toofew\t1\n",
		"badkind\tx\t5\n",
		"badkind\t9\t5\n",
		"badcount\t0\tx\n",
		"dup\t0\t1\ndup\t0\t2\n",
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("Load(%q): want error", c)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindItem.String() != "item" || KindSI.String() != "si" || KindUserType.String() != "usertype" {
		t.Fatal("Kind.String broken")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}
