package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"sisg/internal/rng"
)

// transportOptions returns training options tuned for transport tests:
// generous timeouts (no spurious retries under CI load) over the named
// transport.
func transportOptions(workers int, transport string) Options {
	opt := tinyOptions(workers)
	opt.Transport = transport
	return opt
}

// The deterministic-stats contract must be transport-independent: the
// same seed and options train the same pairs with the same accounting
// whether requests ride channels or loopback TCP. (Multi-worker embedding
// VALUES are not run-to-run deterministic on either transport — serve
// interleaving and the shared LR counter see real scheduling — so the
// property is asserted at the level that genuinely holds; see DESIGN.md
// §5h. Bit-identical embeddings are asserted below for Workers=1, where
// no interleaving exists.)
func TestTransportStatsEquivalence(t *testing.T) {
	for _, workers := range []int{2, 4} {
		for _, seed := range []uint64{1, 7} {
			t.Run(fmt.Sprintf("w%d_seed%d", workers, seed), func(t *testing.T) {
				ds, seqs, part := tinySetup(t, workers)
				var got [2][]uint64
				for i, tr := range []string{TransportChan, TransportTCP} {
					opt := transportOptions(workers, tr)
					opt.Seed = seed
					_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
					if err != nil {
						t.Fatal(err)
					}
					if tr == TransportTCP && st.WireBytesSent == 0 {
						t.Fatal("tcp run measured zero wire bytes")
					}
					got[i] = deterministicStats(t, st)
					// WireFrames is requests + replies on both transports: a
					// run in which no attempt timed out (Retries is shaped by
					// timing) puts exactly two frames on the wire per remote
					// call, so frames per remote pair compare across them.
					if st.Retries != 0 {
						t.Logf("%s: %d retries, frame count not checked", tr, st.Retries)
					} else if st.WireFrames != 2*st.RemoteCalls {
						t.Errorf("%s: %d wire frames for %d remote calls, want one request and one reply each",
							tr, st.WireFrames, st.RemoteCalls)
					}
					// A call carries one owner's share of a sequence, not a pair.
					// With two workers every remote pair of a sequence has the
					// same owner, so a call carries them all (14 on average on
					// this corpus; a regression to per-centre calls reads ≈ 3).
					if workers == 2 && st.RemotePairs < 4*st.RemoteCalls {
						t.Errorf("%s: %d remote pairs in %d calls, want at least 4 per call",
							tr, st.RemotePairs, st.RemoteCalls)
					}
				}
				if fmt.Sprint(got[0]) != fmt.Sprint(got[1]) {
					t.Fatalf("stats diverge across transports:\nchan: %v\ntcp:  %v", got[0], got[1])
				}
			})
		}
	}
}

// With a single worker there are no remote calls, no serve interleaving
// and no scheduling freedom at all: the embeddings must be bit-identical
// across transports (and, implicitly, across runs).
func TestTransportSingleWorkerBitIdentical(t *testing.T) {
	ds, seqs, part := tinySetup(t, 1)
	var models [2][]byte
	for i, tr := range []string{TransportChan, TransportTCP} {
		m, _, err := Train(ds.Dict.Dict, seqs, part, transportOptions(1, tr))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, 8*len(m.In.Data()))
		for _, v := range m.In.Data() {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		for _, v := range m.Out.Data() {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		models[i] = buf
	}
	if !bytes.Equal(models[0], models[1]) {
		t.Fatal("single-worker embeddings differ between chan and tcp transports")
	}
}

// Repeated seeded TCP runs must replay the deterministic stats exactly —
// the same contract the chaos harness enforces, asserted here without
// faults so a regression is attributable to the transport alone.
func TestTCPStatsDeterministic(t *testing.T) {
	ds, seqs, part := tinySetup(t, 3)
	var prev []uint64
	for run := 0; run < 2; run++ {
		_, st, err := Train(ds.Dict.Dict, seqs, part, transportOptions(3, TransportTCP))
		if err != nil {
			t.Fatal(err)
		}
		cur := deterministicStats(t, st)
		if prev != nil && fmt.Sprint(prev) != fmt.Sprint(cur) {
			t.Fatalf("same-seed tcp runs diverge:\nrun0: %v\nrun1: %v", prev, cur)
		}
		prev = cur
	}
}

// drainInbox serves a transport's inbox with a deterministic function of
// the request, standing in for a worker's serve loop.
func drainInbox(tr Transport, id int32, f func(*tnsReq) []float32) chan struct{} {
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		inbox := tr.Inbox(id)
		done := tr.Done()
		for {
			select {
			case req := <-inbox:
				req.reply <- f(req)
			case <-done:
				for {
					select {
					case req := <-inbox:
						req.reply <- f(req)
					default:
						return
					}
				}
			}
		}
	}()
	return stop
}

// The wire must not alter payloads: a seeded workload of batches pushed
// through Send and Await comes back bit-identical on both transports, including
// every float32's exact bits (negative zero, denormals, the lot).
func TestTransportPayloadBitIdentity(t *testing.T) {
	const dim, calls = 33, 200
	mk := func(name string) Transport {
		switch name {
		case TransportChan:
			return newChanTransport(2)
		default:
			tr, err := newTCPTransport(2, 42)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
	}
	echo := func(req *tnsReq) []float32 {
		out := []float32{req.lr, float32(len(req.counts))}
		for _, c := range req.counts {
			out = append(out, float32(c))
		}
		for _, c := range req.ctxs {
			out = append(out, float32(c))
		}
		return append(out, req.vecs...)
	}
	var replies [2][]byte
	for i, name := range []string{TransportChan, TransportTCP} {
		tr := mk(name)
		stopped := drainInbox(tr, 1, echo)
		r := rng.New(99)
		var buf []byte
		for c := 0; c < calls; c++ {
			b := tnsBatch{lr: r.Float32()}
			for e := r.Intn(5); e > 0; e-- { // 0..4 entries of 0..3 contexts
				n := r.Intn(4)
				b.counts = append(b.counts, int32(n))
				for ; n > 0; n-- {
					b.ctxs = append(b.ctxs, int32(r.Uint32()))
				}
				for j := 0; j < dim; j++ {
					v := math.Float32frombits(r.Uint32())
					if v != v {
						v = 0 // NaN payloads cannot be compared for equality downstream
					}
					b.vecs = append(b.vecs, v)
				}
			}
			tk, ok := tr.Send(0, 1, &b, 5*time.Second, func(*tnsReq) {})
			var grads []float32
			if ok {
				grads, ok = tr.Await(0, 1, tk, 5*time.Second, func(*tnsReq) {})
			}
			if !ok {
				t.Fatalf("%s: call %d failed", name, c)
			}
			for _, v := range grads {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			}
		}
		tr.CloseInboxes()
		<-stopped
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		replies[i] = buf
	}
	if !bytes.Equal(replies[0], replies[1]) {
		t.Fatal("reply payloads differ between chan and tcp transports")
	}
}

// A severed connection heals by reconnect: the link is cut mid-run, the
// transport redials, no worker is ever declared dead, and the recovery
// invariants hold. This is the reconnect-vs-heartbeat property: healing
// must finish without tripping dead-worker detection.
func TestTCPSeverReconnect(t *testing.T) {
	ds, seqs, part := tinySetup(t, 3)
	opt := recoveryOptions(3)
	opt.Transport = TransportTCP
	opt.Faults.Wire.Severs = []SeverSpec{
		{From: 0, To: 1, AtSends: 20},
		{From: 2, To: 1, AtSends: 35},
		{From: 0, To: 1, AtSends: 60},
	}
	_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveryInvariants(t, st)
	if len(st.DeadWorkers) != 0 {
		t.Fatalf("severed links got workers declared dead: %v", st.DeadWorkers)
	}
	if st.Reconnects == 0 {
		t.Fatal("no reconnects recorded; severs did not exercise the redial path")
	}
}

// A one-way partition window blackholes requests; the requester retries
// until the window passes, so the accounting balances and nobody dies.
func TestTCPOneWayPartitionHeals(t *testing.T) {
	ds, seqs, part := tinySetup(t, 3)
	opt := recoveryOptions(3)
	opt.Transport = TransportTCP
	opt.Faults.Wire.Partitions = []PartitionSpec{
		{From: 0, To: 1, AtSends: 10, ForSends: 15},
		{From: 1, To: 2, AtSends: 25, ForSends: 10},
	}
	_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveryInvariants(t, st)
	if len(st.DeadWorkers) != 0 {
		t.Fatalf("partition windows got workers declared dead: %v", st.DeadWorkers)
	}
	if st.Retries == 0 {
		t.Fatal("no retries recorded; the partition windows blackholed nothing")
	}
}

// Duplicate deliveries must be invisible to the accounting: the extra
// serve's reply is discarded, and pair accounting still balances.
func TestTransportDuplicateDelivery(t *testing.T) {
	for _, tr := range []string{TransportChan, TransportTCP} {
		t.Run(tr, func(t *testing.T) {
			ds, seqs, part := tinySetup(t, 3)
			opt := transportOptions(3, tr)
			opt.Faults.Wire.DupFraction = 1 // every request delivered twice
			_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st.Pairs != st.LocalPairs+st.RemotePairs {
				t.Fatalf("pair accounting broken under duplication: %+v", st)
			}
		})
	}
}

// Fixed per-request delays (a slow link) must never break accounting:
// every delayed request eventually lands.
func TestTCPSlowLinkDelays(t *testing.T) {
	ds, seqs, part := tinySetup(t, 3)
	opt := recoveryOptions(3)
	opt.Transport = TransportTCP
	opt.Faults.DropFraction = 0.02
	opt.Faults.Wire.DelayFraction = 0.05
	opt.Faults.Wire.Delay = 3 * time.Millisecond
	_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveryInvariants(t, st)
	if len(st.DeadWorkers) != 0 {
		t.Fatalf("slow link got workers declared dead: %v", st.DeadWorkers)
	}
}

func TestWireFaultsValidate(t *testing.T) {
	cases := []struct {
		name string
		plan FaultPlan
	}{
		{"delay fraction out of range", FaultPlan{Wire: WireFaults{DelayFraction: 1.5, Delay: time.Millisecond}}},
		{"delay fraction without delay", FaultPlan{Wire: WireFaults{DelayFraction: 0.5}}},
		{"dup fraction out of range", FaultPlan{Wire: WireFaults{DupFraction: -0.1}}},
		{"sever self", FaultPlan{Wire: WireFaults{Severs: []SeverSpec{{From: 1, To: 1, AtSends: 5}}}}},
		{"sever at zero", FaultPlan{Wire: WireFaults{Severs: []SeverSpec{{From: 0, To: 1}}}}},
		{"partition self", FaultPlan{Wire: WireFaults{Partitions: []PartitionSpec{{From: 2, To: 2, AtSends: 1}}}}},
		{"partition at zero", FaultPlan{Wire: WireFaults{Partitions: []PartitionSpec{{From: 0, To: 1}}}}},
		{"negative sever worker", FaultPlan{Wire: WireFaults{Severs: []SeverSpec{{From: -1, To: 1, AtSends: 1}}}}},
	}
	for _, c := range cases {
		if err := c.plan.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid plan", c.name)
		}
	}
	ok := FaultPlan{
		DropFraction: 0.1,
		Wire: WireFaults{
			DelayFraction: 0.2, Delay: time.Millisecond, DupFraction: 0.3,
			Severs:     []SeverSpec{{From: 0, To: 1, AtSends: 10}},
			Partitions: []PartitionSpec{{From: 1, To: 0, AtSends: 5, ForSends: 3}},
		},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// An unknown transport name must be rejected before any goroutine spawns.
func TestUnknownTransportRejected(t *testing.T) {
	ds, seqs, part := tinySetup(t, 2)
	opt := transportOptions(2, "carrier-pigeon")
	if _, _, err := Train(ds.Dict.Dict, seqs, part, opt); err == nil {
		t.Fatal("unknown transport accepted")
	}
}
