package dist

import (
	"fmt"
	"math"
	"testing"
	"time"

	"sisg/internal/graph"
	"sisg/internal/rng"
	"sisg/internal/vecmath"
	"sisg/internal/vocab"
)

// orderEvent is one Send or Await as its requester made it: the position
// of the batch's sequence, the position being scanned, and how far the
// requester's counters had got.
type orderEvent struct {
	send         bool
	dst          int32
	seq, at      uint64
	pairs, local uint64
	incarnation  int
}

// orderTransport records, per requester, every Send and Await in the order
// the requester made them. It also checks two things only visible at the
// moment they happen: no owner ever has two requests of one requester
// outstanding, and a reply's gradients are in in(v_i) by the time the same
// sequence end sends its next request. A fenced incarnation abandons what it
// holds, so the outstanding count restarts with each incarnation. Every
// per-requester field is written only by that requester's goroutine.
type orderTransport struct {
	Transport
	t       *testing.T
	e       *engine
	log     [][]orderEvent
	open    [][]int
	applied []map[int32][]float32 // src → in-rows the last reply should have left
	appAt   []uint64              // src → the position that reply was taken at
}

func newOrderTransport(t *testing.T, e *engine) *orderTransport {
	w := e.opt.Workers
	o := &orderTransport{Transport: e.tr, t: t, e: e, log: make([][]orderEvent, w),
		open: make([][]int, w), applied: make([]map[int32][]float32, w), appAt: make([]uint64, w)}
	for i := range o.open {
		o.open[i] = make([]int, w)
	}
	e.tr = o
	return o
}

func (o *orderTransport) event(send bool, src, dst int32) {
	w := o.e.workers[src]
	if n := len(o.log[src]); n > 0 && o.log[src][n-1].incarnation != w.incarnation {
		clear(o.open[src])
	}
	o.log[src] = append(o.log[src], orderEvent{send: send, dst: dst, seq: w.fly[dst].seq, at: w.at,
		pairs: w.pairs.Load(), local: w.localPairs.Load(), incarnation: w.incarnation})
}

func (o *orderTransport) Send(src, dst int32, b *tnsBatch, timeout time.Duration, serve func(*tnsReq)) (ticket, bool) {
	if want := o.applied[src]; want != nil && o.appAt[src] == o.e.workers[src].at {
		for tok, row := range want {
			if !sameBits(o.e.model.In.Row(tok), row) {
				o.t.Errorf("worker %d: in(%d) at its next send is not the awaited reply applied", src, tok)
			}
		}
	}
	o.applied[src] = nil
	o.event(true, src, dst)
	tk, ok := o.Transport.Send(src, dst, b, timeout, serve)
	if ok {
		if o.open[src][dst]++; o.open[src][dst] > 1 {
			o.t.Errorf("worker %d has %d requests outstanding to %d", src, o.open[src][dst], dst)
		}
	}
	return tk, ok
}

func (o *orderTransport) Await(src, dst int32, tk ticket, timeout time.Duration, serve func(*tnsReq)) ([]float32, bool) {
	o.event(false, src, dst)
	grads, ok := o.Transport.Await(src, dst, tk, timeout, serve)
	o.open[src][dst]--
	if ok {
		w, dim := o.e.workers[src], o.e.opt.Dim
		want := map[int32][]float32{}
		for k, c := range w.fly[dst].centres {
			if want[c] == nil {
				want[c] = append([]float32(nil), o.e.model.In.Row(c)...)
			}
			vecmath.Add(grads[k*dim:(k+1)*dim], want[c])
		}
		o.applied[src], o.appAt[src] = want, w.at
	}
	return grads, ok
}

func sameBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

func posString(p uint64) string {
	ep, seq := unpackCursor(p)
	return fmt.Sprintf("(epoch %d, seq %d)", ep, seq)
}

// Remote requests are one sequence deep, at points the scan fixes. Every
// sequence of this corpus has local and remote pairs for both workers
// (owners run 0,0,1,1,… along it and the window is one token), so each
// worker's wire log must be exactly Send(p), Await(p) for every position p
// in scan order, with
//
//   - Send(p) made while p is still the sequence being scanned, so before
//     the next sequence's first pair;
//   - Await(p) made at the end of the next sequence, after all its pairs —
//     its local pairs included — and before its Send, with the gradients
//     in in(v_i) by that Send; except at the end of a block (an epoch,
//     or the stretch up to a checkpoint barrier), where the window drains before the scan moves on;
//   - never two requests outstanding to one owner;
//   - an empty window at every barrier.
func TestRemoteRequestsOverlapOneSequence(t *testing.T) {
	const n, numSeqs, seqLen = 40, 1100, 8
	d := vocab.NewDict(n)
	for i := 0; i < n; i++ {
		d.Add(fmt.Sprintf("it%d", i), vocab.KindItem, 0)
	}
	part := &graph.Partition{Of: make([]int32, n), W: 2}
	for i := range part.Of {
		part.Of[i] = int32(i % 2)
	}
	r := rng.New(5)
	seqs := make([][]int32, numSeqs)
	for s := range seqs {
		seqs[s] = make([]int32, seqLen)
		for j := range seqs[s] {
			seqs[s][j] = int32(2*r.Intn(n/2) + j/2%2)
			d.AddCount(seqs[s][j], 1)
		}
	}
	for _, tc := range []struct {
		transport string
		ckpt      bool
		epochs    int
	}{
		{TransportChan, true, 1},
		{TransportChan, false, 2},
		{TransportTCP, true, 1},
	} {
		t.Run(fmt.Sprintf("%s_ckpt=%v_epochs=%d", tc.transport, tc.ckpt, tc.epochs), func(t *testing.T) {
			opt := DefaultOptions(2)
			opt.Dim = 8
			opt.Epochs = tc.epochs
			opt.Window = 1
			opt.SubsampleT = 0
			opt.HotReplication = false
			opt.Transport = tc.transport
			if tc.ckpt {
				opt.CheckpointDir = t.TempDir()
				opt.CheckpointEvery = math.MaxUint64 // barriers everywhere, a snapshot only at the end
			}
			e, err := newEngine(d, seqs, part, opt)
			if err != nil {
				t.Fatal(err)
			}
			o := newOrderTransport(t, e)
			barriers := 0
			checkpointAbortHook = func(int) bool {
				barriers++
				for _, w := range e.workers {
					for dst := range w.fly {
						if len(w.fly[dst].counts) != 0 || len(w.pend[dst].counts) != 0 {
							t.Errorf("barrier %d: worker %d still holds entries for %d", barriers, w.id, dst)
						}
					}
				}
				return false
			}
			t.Cleanup(func() { checkpointAbortHook = nil })
			_, st, err := e.run()
			if err != nil {
				t.Fatal(err)
			}
			if tc.ckpt && barriers != 3 {
				t.Fatalf("%d barriers, want 3", barriers)
			}
			if st.RemoteCalls != uint64(2*numSeqs*tc.epochs) || st.Retries != 0 {
				t.Fatalf("%d calls, %d retries; want one call per worker and sequence, no fault",
					st.RemoteCalls, st.Retries)
			}
			// Where the window drains: at each block's last sequence — an
			// epoch's last, and every checkpointBlockSeqs-th when barriers
			// cut the scan.
			var order []uint64
			drains := map[uint64]bool{}
			for ep := 0; ep < tc.epochs; ep++ {
				for s := 0; s < numSeqs; s++ {
					order = append(order, packCursor(ep, s))
					if s == numSeqs-1 || tc.ckpt && s%checkpointBlockSeqs == checkpointBlockSeqs-1 {
						drains[packCursor(ep, s)] = true
					}
				}
			}
			for src, log := range o.log {
				if len(log) != 2*len(order) {
					t.Fatalf("worker %d made %d sends and awaits, want %d", src, len(log), 2*len(order))
				}
				for k, p := range order {
					s, a := log[2*k], log[2*k+1]
					if !s.send || s.seq != p || s.at != p {
						t.Fatalf("worker %d, event %d: want the send of %s while scanning it, got %+v", src, 2*k, posString(p), s)
					}
					if a.send || a.seq != p {
						t.Fatalf("worker %d, event %d: want the await of %s, got %+v", src, 2*k+1, posString(p), a)
					}
					if drains[p] {
						if a.at != p || a.pairs != s.pairs {
							t.Fatalf("worker %d: %s is a drain point, but its reply was taken at %s after %d more pairs",
								src, posString(p), posString(a.at), a.pairs-s.pairs)
						}
						continue
					}
					next := log[2*k+2]
					if a.at != order[k+1] || a.pairs <= s.pairs {
						t.Fatalf("worker %d: the reply of %s was taken at %s after %d pairs, want at the end of the next sequence's scan",
							src, posString(p), posString(a.at), a.pairs-s.pairs)
					}
					if next.at != a.at || next.pairs != a.pairs || next.local != a.local {
						t.Fatalf("worker %d: %d pairs (%d local) trained between the await of %s and the next send",
							src, next.pairs-a.pairs, next.local-a.local, posString(p))
					}
				}
			}
		})
	}
}

// A fence that lands while its incarnation has a request in flight: the
// worker stalls past DeadAfter mid-scan, holding the previous sequence's
// request. The fenced incarnation takes no reply and un-counts the pairs
// of every request it holds, the cursor stays on the oldest of them, and
// the replacement scans that sequence again — so the pair accounting
// balances.
func TestFencedWithRequestInFlightResumesAtUnsettledSequence(t *testing.T) {
	ds, seqs, part := tinySetup(t, 2)
	opt := recoveryOptions(2)
	opt.Faults.Stalls = []StallSpec{{Worker: 1, AtPairs: 3000, For: 5 * opt.DeadAfter}}
	e, err := newEngine(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	o := newOrderTransport(t, e)
	_, st, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveryInvariants(t, st)
	if st.Restarts != 1 || len(st.DeadWorkers) != 1 || st.DeadWorkers[0] != 1 {
		t.Fatalf("restarts %d, dead %v; want worker 1 fenced and resurrected once", st.Restarts, st.DeadWorkers)
	}
	// The first incarnation's requests that were sent and never awaited:
	// its window when the fence landed.
	unsettled := map[int32]uint64{}
	for _, ev := range o.log[1] {
		if ev.incarnation != 0 {
			break
		}
		if ev.send {
			unsettled[ev.dst] = ev.seq
		} else {
			delete(unsettled, ev.dst)
		}
	}
	if len(unsettled) == 0 {
		t.Fatal("the fenced incarnation held no request; the stall point proves nothing")
	}
	oldest := uint64(math.MaxUint64)
	for _, p := range unsettled {
		oldest = min(oldest, p)
	}
	w := e.workers[1]
	if got := packCursor(w.resumeEpoch, w.resumeSeq); got != oldest {
		t.Fatalf("the replacement resumed at %s, want the unsettled %s", posString(got), posString(oldest))
	}
}
