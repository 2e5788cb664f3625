package bench

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"sisg/internal/corpus"
	"sisg/internal/dist"
	"sisg/internal/eges"
	"sisg/internal/emb"
	"sisg/internal/graph"
	"sisg/internal/race"
	"sisg/internal/sgns"
	"sisg/internal/sisg"
)

// matrixSum is the FNV-1a checksum of the matrices' float32 bit patterns.
func matrixSum(ms ...*emb.Matrix) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, m := range ms {
		for _, v := range m.Data() {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// The pair loop is shared by three batch trainers, and every one of them
// promises a byte-identical model for one worker and one seed. These sums
// were recorded before the loop learned to pre-sample a pair's negatives
// and prefetch their rows: any change to the RNG draw order or to the
// arithmetic moves them. They hold for the AVX kernels and, under -tags
// purego, for the reference kernels alike. (The streaming trainer's sum is
// pinned in internal/sisg, where the live matrices are reachable.) The
// undirected SISG-F-U sums pin the left half of the window, which the
// directed SISG-F-U-D runs never read.
func TestSingleWorkerModelsBytePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("sums recorded on amd64; the helpers outside PairStep and DotRows promise no rounding order across architectures")
	}
	cfg := corpus.Tiny()
	cfg.NumSessions = 900
	ds, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		suffix     string
		v          sisg.Variant
		sgns, dist uint64
	}{
		{"", sisg.VariantSISGFUD, 0x6b3bfd37abc5af4e, 0x38877fd9a503602e},
		{"-undirected", sisg.VariantSISGFU, 0x4ac326f57b6d9ae4, 0x3fa25cb7af8118f6},
	} {
		seqs := sisg.Enrich(ds.Dict, ds.Sessions, c.v)
		t.Run("sgns"+c.suffix, func(t *testing.T) {
			o := sisg.TrainOptions(sgns.Defaults(), c.v, 3)
			o.Epochs, o.Workers = 1, 1
			m, _, err := sgns.Train(ds.Dict.Dict, seqs, o)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := matrixSum(m.In, m.Out), c.sgns; got != want {
				t.Errorf("sgns.Train %s W=1 model sum %#x, want %#x", c.v.Name, got, want)
			}
		})
		t.Run("dist"+c.suffix, func(t *testing.T) {
			part, _, err := dist.PartitionForDataset(ds, ds.Sessions, 1)
			if err != nil {
				t.Fatal(err)
			}
			o := dist.DefaultOptions(1)
			o.Options = sisg.TrainOptions(o.Options, c.v, 3)
			o.Workers, o.Epochs, o.HotTopK = 1, 1, 64
			m, _, err := dist.Train(ds.Dict.Dict, seqs, part, o)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := matrixSum(m.In, m.Out), c.dist; got != want {
				t.Errorf("dist.Train %s one worker over chan model sum %#x, want %#x", c.v.Name, got, want)
			}
		})
	}
	t.Run("eges", func(t *testing.T) {
		o := eges.Defaults()
		o.Dim, o.Epochs, o.Workers = 16, 1, 1
		m, err := eges.Train(ds.Dict, graph.FromSessions(ds.Sessions, ds.Dict.NumItems), o)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := matrixSum(m.In, m.Out), uint64(0xc5834acde4067f86); got != want {
			t.Errorf("eges.Train W=1 model sum %#x, want %#x", got, want)
		}
	})
}

// The one-worker sums cannot see how two workers split the work: Hogwild's
// shards or dist's ownership filter. Both trainers' pair accounting is
// deterministic at two workers — only per-worker RNG streams drive the
// scan — so it is pinned on the same corpus, with counts recorded before
// the trainers shared one walk.
func TestTwoWorkerPairAccountingPinned(t *testing.T) {
	cfg := corpus.Tiny()
	cfg.NumSessions = 900
	ds, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqs := sisg.Enrich(ds.Dict, ds.Sessions, sisg.VariantSISGFUD)

	t.Run("sgns", func(t *testing.T) {
		if race.Enabled {
			t.Skip("Hogwild at two workers is racy by design")
		}
		o := sisg.TrainOptions(sgns.Defaults(), sisg.VariantSISGFUD, 3)
		o.Epochs, o.Workers = 1, 2
		_, st, err := sgns.Train(ds.Dict.Dict, seqs, o)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]uint64{st.Pairs, st.Updates, st.Tokens}
		if want := [3]uint64{141061, 846366, 46431}; got != want {
			t.Errorf("sgns.Train W=2 pairs, updates, tokens %v, want %v", got, want)
		}
	})
	t.Run("dist", func(t *testing.T) {
		part, _, err := dist.PartitionForDataset(ds, ds.Sessions, 2)
		if err != nil {
			t.Fatal(err)
		}
		o := dist.DefaultOptions(2)
		o.Options = sisg.TrainOptions(o.Options, sisg.VariantSISGFUD, 3)
		o.Epochs, o.HotTopK = 1, 64
		_, st, err := dist.Train(ds.Dict.Dict, seqs, part, o)
		if err != nil {
			t.Fatal(err)
		}
		got := [4]uint64{st.Pairs, st.LocalPairs, st.RemotePairs, st.RemoteCalls}
		if want := [4]uint64{141176, 120905, 20271, 1447}; got != want {
			t.Errorf("dist.Train W=2 over chan pairs, local, remote, calls %v, want %v", got, want)
		}
	})
}
