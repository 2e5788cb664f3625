package emb_test

// The model file is a checkpoint.Snapshot that holds only the model, written
// by sisg.Model.Save and read by sisg.LoadModel; these tests drive that path
// for the matrices this package stores. They live in an external test
// package because sisg and checkpoint import emb.

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"sisg/internal/checkpoint"
	"sisg/internal/corpus"
	"sisg/internal/emb"
	"sisg/internal/rng"
	"sisg/internal/sgns"
	"sisg/internal/sisg"
)

// trainTiny trains a small SISG-F-U-D model on the tiny corpus, on one
// worker so the run is deterministic; opt adjusts the training options.
func trainTiny(t *testing.T, opt func(*sgns.Options)) (*corpus.Dataset, *sisg.Model) {
	t.Helper()
	ds, err := corpus.Generate(corpus.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	o := sgns.Defaults()
	o.Dim, o.Epochs, o.Workers = 8, 1, 1
	if opt != nil {
		opt(&o)
	}
	m, err := sisg.Train(ds.Dict, ds.Sessions[:600], sisg.VariantSISGFUD, o)
	if err != nil {
		t.Fatal(err)
	}
	return ds, m
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b *emb.Matrix) bool {
	if a.Dim != b.Dim || len(a.Data()) != len(b.Data()) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

func TestSaveLoadRoundtrip(t *testing.T) {
	ds, m := trainTiny(t, nil)
	path := filepath.Join(t.TempDir(), "model.emb")
	if err := m.Save(path, ds.Cfg); err != nil {
		t.Fatal(err)
	}
	got, err := sisg.LoadModel(path, ds, sisg.VariantSISGFUD)
	if err != nil {
		t.Fatal(err)
	}
	if got.Emb.Vocab() != ds.Dict.Len() || got.Emb.Dim() != 8 {
		t.Fatalf("loaded shape %dx%d", got.Emb.Vocab(), got.Emb.Dim())
	}
	if !sameBits(got.Emb.In, m.Emb.In) || !sameBits(got.Emb.Out, m.Emb.Out) {
		t.Fatal("loaded matrices differ from the trained ones")
	}
	if got.Variant != m.Variant || got.Dict != ds.Dict {
		t.Fatalf("loaded model bound to %v and %p, want %v and %p", got.Variant, got.Dict, m.Variant, ds.Dict)
	}
}

// Any shape and any float bits, NaN payloads included, survive the writer
// and reader that model files and trainer checkpoints share.
func TestSaveLoadProperty(t *testing.T) {
	dir := t.TempDir()
	f := func(vocab, dim uint8, seed uint64, bits uint32) bool {
		v := int(vocab%20) + 1
		d := int(dim%16) + 1
		r := rng.New(seed)
		m := emb.NewModel(v, d, r)
		for i := range m.Out.Data() {
			m.Out.Data()[i] = r.Float32() - 0.5
		}
		m.Out.Data()[0] = math.Float32frombits(bits)
		path := filepath.Join(dir, "model.emb")
		if err := checkpoint.Save(path, &checkpoint.Snapshot{OptionsHash: seed, Model: m}); err != nil {
			return false
		}
		s, err := checkpoint.Load(path)
		return err == nil && s.OptionsHash == seed &&
			sameBits(s.Model.In, m.In) && sameBits(s.Model.Out, m.Out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// legacyFile encodes m the way model files were written before they were
// snapshots: an 8-byte magic, vocab and dim as uint32, then In and Out.
func legacyFile(m *emb.Model) []byte {
	b := []byte{'S', 'I', 'S', 'G', 'E', 'M', 'B', '1'}
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Vocab()))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Dim()))
	for _, mat := range []*emb.Matrix{m.In, m.Out} {
		for _, v := range mat.Data() {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
	}
	return b
}

// Every model reader refuses a torn, corrupt or foreign file with an error,
// never a panic and never a model.
func TestLoadErrors(t *testing.T) {
	ckDir := t.TempDir()
	ds, m := trainTiny(t, func(o *sgns.Options) {
		o.CheckpointDir, o.CheckpointEvery = ckDir, 1
	})
	dir := t.TempDir()
	good := filepath.Join(dir, "model.emb")
	if err := m.Save(good, ds.Cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := sisg.LoadModel(good, ds, sisg.VariantSISGFUD); err != nil {
		t.Fatalf("the model's own corpus and variant: %v", err)
	}
	orig, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	flipped := append([]byte(nil), orig...)
	flipped[len(flipped)/2] ^= 0x40
	// The same dictionary under another config identity: only the hash can
	// tell these apart from the model's own dataset.
	other := func(edit func(*corpus.Config)) *corpus.Dataset {
		cfg := ds.Cfg
		edit(&cfg)
		return &corpus.Dataset{Cfg: cfg, Dict: ds.Dict}
	}

	for _, c := range []struct {
		name string
		path string
		ds   *corpus.Dataset
		v    sisg.Variant
		want error
	}{
		{"flipped byte", write("flipped.emb", flipped), ds, sisg.VariantSISGFUD, checkpoint.ErrCorrupt},
		{"truncated", write("truncated.emb", orig[:len(orig)-7]), ds, sisg.VariantSISGFUD, checkpoint.ErrCorrupt},
		{"empty", write("empty.emb", nil), ds, sisg.VariantSISGFUD, checkpoint.ErrCorrupt},
		{"pre-snapshot format", write("legacy.emb", legacyFile(m.Emb)), ds, sisg.VariantSISGFUD, checkpoint.ErrCorrupt},
		{"other seed", good, other(func(c *corpus.Config) { c.Seed++ }), sisg.VariantSISGFUD, checkpoint.ErrOptionsMismatch},
		{"other corpus name", good, other(func(c *corpus.Config) { c.Name = "Quick" }), sisg.VariantSISGFUD, checkpoint.ErrOptionsMismatch},
		{"other variant", good, ds, sisg.VariantSISGF, checkpoint.ErrOptionsMismatch},
		{"trainer checkpoint", checkpoint.Path(ckDir), ds, sisg.VariantSISGFUD, checkpoint.ErrOptionsMismatch},
		{"missing", filepath.Join(dir, "absent.emb"), ds, sisg.VariantSISGFUD, os.ErrNotExist},
	} {
		got, err := sisg.LoadModel(c.path, c.ds, c.v)
		if !errors.Is(err, c.want) || got != nil {
			t.Errorf("%s: LoadModel = %v, %v; want nil, %v", c.name, got, err, c.want)
		}
	}
}
