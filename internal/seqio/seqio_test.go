package seqio

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"sisg/internal/corpus"
)

func testPopulation(t *testing.T) (*corpus.Dataset, []corpus.Session) {
	t.Helper()
	cfg := corpus.Tiny()
	cfg.NumSessions = 200
	ds, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, ds.Sessions
}

func sessionsEqual(a, b []corpus.Session) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].UserType != b[i].UserType || len(a[i].Items) != len(b[i].Items) {
			return false
		}
		for j := range a[i].Items {
			if a[i].Items[j] != b[i].Items[j] {
				return false
			}
		}
	}
	return true
}

func TestTextRoundtrip(t *testing.T) {
	ds, sessions := testPopulation(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, sessions, ds.Pop); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf, ds.Pop)
	if err != nil {
		t.Fatal(err)
	}
	if !sessionsEqual(sessions, got) {
		t.Fatal("text roundtrip mismatch")
	}
}

func TestTextFormatShape(t *testing.T) {
	ds, _ := testPopulation(t)
	sessions := []corpus.Session{{UserType: 0, Items: []int32{3, 7}}}
	var buf bytes.Buffer
	if err := WriteText(&buf, sessions, ds.Pop); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimRight(buf.String(), "\n")
	want := ds.Pop.Types[0].Token() + "\titem_3 item_7"
	if line != want {
		t.Fatalf("line = %q, want %q", line, want)
	}
}

func TestTextErrors(t *testing.T) {
	ds, _ := testPopulation(t)
	cases := []string{
		"noTabHere item_1 item_2\n",
		"ut_unknown_type\titem_1\n",
		ds.Pop.Types[0].Token() + "\tnotanitem_5\n",
		ds.Pop.Types[0].Token() + "\titem_notanumber\n",
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c), ds.Pop); err == nil {
			t.Errorf("ReadText(%q): want error", c)
		}
	}
}

func TestBinaryRoundtrip(t *testing.T) {
	ds, sessions := testPopulation(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sessions); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf, ds.Cfg.NumItems, len(ds.Pop.Types))
	if err != nil {
		t.Fatal(err)
	}
	if !sessionsEqual(sessions, got) {
		t.Fatal("binary roundtrip mismatch")
	}
}

func TestBinaryRoundtripProperty(t *testing.T) {
	f := func(raw [][]uint16, users []uint8) bool {
		var sessions []corpus.Session
		for i, items := range raw {
			if len(items) == 0 {
				continue
			}
			s := corpus.Session{Items: make([]int32, len(items))}
			if i < len(users) {
				s.UserType = int32(users[i])
			}
			for j, v := range items {
				s.Items[j] = int32(v)
			}
			sessions = append(sessions, s)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, sessions); err != nil {
			return false
		}
		got, err := ReadBinary(&buf, 0, 0)
		if err != nil {
			return false
		}
		return sessionsEqual(sessions, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOTMAGIC....."), 0, 0); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	_, sessions := testPopulation(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sessions); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)/2]), 0, 0); err == nil {
		t.Fatal("truncated file accepted")
	}
}

// An item id the catalog or a user type the population cannot index is
// refused, not handed to the trainer.
func TestBinaryOutOfRangeItem(t *testing.T) {
	for _, s := range []corpus.Session{
		{UserType: 0, Items: []int32{0, 99999}},
		{UserType: 1_000_000, Items: []int32{0, 1}},
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, []corpus.Session{s}); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBinary(&buf, 100, 10); err == nil {
			t.Fatalf("session %+v accepted", s)
		}
	}
}

func TestEmptySessions(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d sessions", len(got))
	}
}
