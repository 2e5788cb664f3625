package dist

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"sisg/internal/cacheline"
	"sisg/internal/graph"
	"sisg/internal/rng"
	"sisg/internal/vecmath"
	"sisg/internal/vocab"
)

// Every pair writes a worker's RNG streams, counters, negative draws and
// gradient; two workers that write one cache line train no faster than
// one. Each worker is one padded block — a replacement incarnation's
// streams are written into it — so no line holds bytes of two workers'
// state. This trains nothing, so it runs under the race detector too.
func TestWorkersShareNoCacheLine(t *testing.T) {
	ds, seqs, part := tinySetup(t, 4)
	e, err := newEngine(ds.Dict.Dict, seqs, part, tinyOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.tr.Close() })
	check := func(when string) {
		t.Helper()
		var owners [][]cacheline.Span
		for _, w := range e.workers {
			owners = append(owners, []cacheline.Span{
				cacheline.SpanOf(w), // r, srng, frng and the atomic counters included
				cacheline.SliceSpan(w.negs),
				cacheline.SliceSpan(w.grad),
				cacheline.SliceSpan(w.kept[:cap(w.kept)]),
			})
		}
		if err := cacheline.Shared(owners); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("new workers")
	e.workers[1].reinit(false)
	e.workers[2].reinit(true)
	check("after reinit")
}

// Serving one request [(v,[c1…cn]), (v',[…])] is serving its contexts one
// request at a time with each gradient folded into v before the next: same
// out-rows afterwards, and each entry's reply is the sum of those replies,
// bit for bit. Both servers start from the same rows and the same srng.
func TestServeBatchEqualsSequentialCalls(t *testing.T) {
	ds, seqs, part := tinySetup(t, 2)
	opt := tinyOptions(2)
	var owned []int32 // non-hot tokens worker 1 owns: what a peer may ask it about
	server := func() *worker {
		e, err := newEngine(ds.Dict.Dict, seqs, part, opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = e.tr.Close() })
		// Output rows start at zero, which would make every gradient zero.
		r := rng.New(5)
		for i, out := 0, e.model.Out.Data(); i < len(out); i++ {
			out[i] = r.Float32() - 0.5
		}
		owned = owned[:0]
		for tok, o := range e.owner {
			if o == 1 && e.hotIdx[tok] < 0 {
				owned = append(owned, int32(tok))
			}
		}
		return e.workers[1]
	}
	call := func(w *worker, b tnsBatch) []float32 {
		req := &tnsReq{tnsBatch: b.clone(), reply: make(chan []float32, 1)}
		w.serve(req)
		return <-req.reply
	}

	batched, single := server(), server()
	if len(owned) < 4 {
		t.Fatalf("worker 1 owns %d cold tokens, need 4", len(owned))
	}
	dim := opt.Dim
	r := rng.New(9)
	vecs := make([]float32, 2*dim)
	for i := range vecs {
		vecs[i] = r.Float32() - 0.5
	}
	// The repeated context makes the second update depend on the first.
	b := tnsBatch{lr: 0.05, counts: []int32{4, 2},
		ctxs: []int32{owned[0], owned[1], owned[0], owned[2], owned[3], owned[1]}, vecs: vecs}

	got := call(batched, b)

	want := make([]float32, len(vecs))
	ctxs := b.ctxs
	for k, n := range b.counts {
		v := append([]float32(nil), vecs[k*dim:(k+1)*dim]...)
		for _, c := range ctxs[:n] {
			grad := call(single, tnsBatch{lr: b.lr, counts: []int32{1}, ctxs: []int32{c}, vecs: v})
			vecmath.Add(grad, v)
			vecmath.Add(grad, want[k*dim:(k+1)*dim])
		}
		ctxs = ctxs[n:]
	}

	bits := func(v []float32) string {
		u := make([]uint32, len(v))
		for i, f := range v {
			u[i] = math.Float32bits(f)
		}
		return fmt.Sprint(u)
	}
	if bits(got) != bits(want) {
		t.Fatal("batched reply differs from the summed one-pair replies")
	}
	var nonzero bool
	for _, g := range got {
		nonzero = nonzero || g != 0
	}
	if !nonzero {
		t.Fatal("every gradient is zero; the comparison proves nothing")
	}
	if bits(batched.e.model.Out.Data()) != bits(single.e.model.Out.Data()) {
		t.Fatal("batched serving left different out-rows than one-pair serving")
	}
	if batched.servedPairs.Load() != 6 || single.servedPairs.Load() != 6 {
		t.Fatalf("served %d / %d pairs, want 6 each", batched.servedPairs.Load(), single.servedPairs.Load())
	}
}

// capTransport records the largest request that went through Send.
type capTransport struct {
	Transport
	maxEntries, maxCtxs atomic.Int64
}

func (c *capTransport) Send(src, dst int32, b *tnsBatch, timeout time.Duration, serve func(*tnsReq)) (ticket, bool) {
	storeMax(&c.maxEntries, len(b.counts))
	storeMax(&c.maxCtxs, len(b.ctxs))
	return c.Transport.Send(src, dst, b, timeout, serve)
}

func storeMax(v *atomic.Int64, n int) {
	for old := v.Load(); int64(n) > old && !v.CompareAndSwap(old, int64(n)); old = v.Load() {
	}
}

// A sequence far longer than one request may carry, every pair of it
// remote: tokens alternate between two owners and the window is 1, so each
// centre's two neighbours belong to the other worker. The buffer is sent
// each time it fills, so no request exceeds the cap whatever the sequence
// length, the call count is exactly what the cap dictates, and both
// transports account the same.
func TestLongSequenceFlushesAtCap(t *testing.T) {
	const n, long = 40, 1000
	d := vocab.NewDict(n)
	for i := 0; i < n; i++ {
		d.Add(fmt.Sprintf("it%d", i), vocab.KindItem, 0)
	}
	part := &graph.Partition{Of: make([]int32, n), W: 2}
	for i := range part.Of {
		part.Of[i] = int32(i % 2)
	}
	r := rng.New(3)
	var seqs [][]int32
	var wantCalls uint64
	for _, l := range []int{long, 7, long + 129, 2, long} {
		seq := make([]int32, l)
		for j := range seq {
			seq[j] = int32(2*r.Intn(n/2) + j%2) // owner = position parity
			d.AddCount(seq[j], 1)
		}
		seqs = append(seqs, seq)
		// Worker p's entries are the positions of parity p, each with at
		// least one neighbour.
		for p := 0; p < 2; p++ {
			entries := (l + 1 - p) / 2
			if l < 2 {
				entries = 0
			}
			wantCalls += uint64((entries + maxBatchEntries - 1) / maxBatchEntries)
		}
	}

	var got [2][]uint64
	for i, tr := range []string{TransportChan, TransportTCP} {
		opt := DefaultOptions(2)
		opt.Dim = 8
		opt.Epochs = 1
		opt.Window = 1
		opt.SubsampleT = 0
		opt.HotReplication = false
		opt.Transport = tr
		e, err := newEngine(d, seqs, part, opt)
		if err != nil {
			t.Fatal(err)
		}
		ct := &capTransport{Transport: e.tr}
		e.tr = ct
		_, st, err := e.run()
		if err != nil {
			t.Fatal(err)
		}
		if st.Pairs == 0 || st.LocalPairs != 0 || st.Pairs != st.LocalPairs+st.RemotePairs {
			t.Fatalf("%s: want every pair remote and accounted, got %d pairs = %d local + %d remote",
				tr, st.Pairs, st.LocalPairs, st.RemotePairs)
		}
		if m := ct.maxEntries.Load(); m != maxBatchEntries {
			t.Errorf("%s: largest request had %d entries, want the cap %d reached and never passed", tr, m, maxBatchEntries)
		}
		if m := ct.maxCtxs.Load(); m > 2*int64(opt.Window)*maxBatchEntries {
			t.Errorf("%s: largest request had %d contexts, cap is %d", tr, m, 2*opt.Window*maxBatchEntries)
		}
		if st.RemoteCalls != wantCalls {
			t.Errorf("%s: %d remote calls, want %d", tr, st.RemoteCalls, wantCalls)
		}
		got[i] = deterministicStats(t, st)
	}
	if fmt.Sprint(got[0]) != fmt.Sprint(got[1]) {
		t.Fatalf("stats diverge across transports:\nchan: %v\ntcp:  %v", got[0], got[1])
	}
}
