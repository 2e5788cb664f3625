package dist

import (
	"sort"
	"sync/atomic"
	"time"

	"sisg/internal/alias"
	"sisg/internal/cacheline"
	"sisg/internal/rng"
	"sisg/internal/sgns"
	"sisg/internal/vecmath"
)

// worker is one simulated machine: it owns the embedding rows of its
// partition, keeps replicas of the hot set, and runs two logical roles in
// one goroutine — scanning its view of the corpus (Algorithm 1's outer
// loop) and serving TNS requests from peers (the function TNS(v_i, v_j)).
// While blocked on a remote call it keeps serving its own queue, which
// makes the request mesh deadlock-free.
type worker struct {
	e   *engine
	id  int32
	r   rng.RNG
	opt *Options

	noise       *alias.Table
	noiseTokens []int32
	walk        sgns.Walk

	// Hot replicas and the base values used for delta synchronization.
	hotIn, hotOut         [][]float32
	hotInBase, hotOutBase [][]float32

	grad []float32
	kept []int32
	negs []int32 // the current pair's negative samples

	// pend[p] is the current sequence's remote pairs for owner p, recorded
	// by the scan; fly[p] is owner p's request in flight — the previous
	// sequence's entries, sent when it ended and settled when this one
	// ends. The two swap buffers at every send.
	pend []remoteBuf
	fly  []flight

	lr float32
	at uint64 // packed position (epoch, seq) of the sequence being scanned

	// srng draws the negatives for SERVED requests. How many requests a
	// worker serves (and when) depends on goroutine scheduling, so if
	// serving consumed r, the scan-side subsample and window draws would
	// shift from run to run and no two runs would train the same pairs.
	// With a dedicated stream, r is consumed only by this worker's own
	// deterministic scan order, which is what makes checkpoint resume
	// replay exact pair counts.
	srng rng.RNG

	// Fault machinery. frng is a dedicated RNG for retry jitter (wire-level
	// faults such as request drops draw from the fault transport's own
	// per-requester streams) so injecting faults never perturbs the
	// training stream in r. Crash and stall triggers fire on the worker's
	// own pair counter — deterministic regardless of goroutine scheduling.
	// crashSpec is this partition's crash schedule; crashArmAt is the armed
	// absolute pair count (0 = disarmed) and is persisted so a resumed run
	// does not re-fire a crash at the wrong position.
	frng      rng.RNG
	crashed   bool
	crashSpec *CrashSpec
	stalls    []StallSpec // sorted by AtPairs; stallIdx is the next unfired
	stallIdx  int

	// Recovery state. cursor is the durable scan position (epoch, seq) a
	// replacement incarnation resumes from: the oldest sequence not yet
	// settled (see markCursor). fenced is set by the supervisor before it
	// replaces this incarnation: the fenced goroutine must stop touching the
	// model and exit (checked at sequence, pair and remote-attempt boundaries),
	// which keeps a false-positive death from ever producing two live
	// incarnations of one partition. gone is closed when the incarnation's
	// goroutine fully exits; the supervisor waits on it before respawning.
	// heartbeat is bumped on every pair, scanned sequence, served request
	// and retry decision; the monitor samples it. It lives in the worker's
	// block because it is written as often as the pair counters.
	heartbeat   atomic.Uint64
	fenced      atomic.Bool
	gone        chan struct{}
	cursor      atomic.Uint64
	resumeEpoch int
	resumeSeq   int
	incarnation int  // reinit count; seeds the replacement RNG streams
	replacement bool // true for every incarnation after the first
	adopted     bool // partition taken over by a survivor: no fault re-arm

	// Counters (merged by the engine after the run and persisted in
	// checkpoints — see saveCounters). Atomic because the progress
	// reporter and registry gauges sample them mid-run; each counter is
	// only ever WRITTEN by its own worker goroutine (or the supervisor
	// between incarnations), so the atomics cost one uncontended add per
	// event.
	pairs, localPairs, remotePairs atomic.Uint64
	remoteCalls                    atomic.Uint64 // successful remote round trips
	remoteBlockedNs                atomic.Int64  // wall-clock blocked in send and settle; timing, not persisted
	servedPairs                    atomic.Uint64
	bytesSent                      atomic.Uint64
	hotSyncs                       atomic.Uint64
	retries                        atomic.Uint64
	recoveredPairs                 atomic.Uint64 // pairs trained by replacement incarnations
	restarts                       atomic.Uint64 // resurrections of this partition
	takenOver                      atomic.Uint64 // 1 once a survivor adopted the partition
	crashesFired                   atomic.Uint64
	crashArmAt                     atomic.Uint64
	sincSync                       int // scan-local, never sampled
}

// newWorker allocates the worker as one padded block (cacheline.Alloc): the
// struct with its three RNG streams and pair counters, the negative draws,
// the kept tokens — room for the longest sequence, so the subsampling pass
// never reallocates — and the gradient. Every pair writes the streams,
// counters, negs and grad; in blocks of their own no two workers write one
// cache line.
func newWorker(e *engine, id int, r *rng.RNG) (*worker, error) {
	n := e.opt.Negatives
	w, ints, floats := cacheline.Alloc[worker](n+e.maxLen, e.opt.Dim)
	*w = worker{
		e: e, id: int32(id), r: *r, opt: &e.opt,
		walk: sgns.NewWalk(e.opt.Window, e.opt.Stride, e.opt.Directed),
		grad: floats,
		kept: ints[n:n],
		negs: ints[:n:n],
		pend: make([]remoteBuf, e.opt.Workers),
		fly:  make([]flight, e.opt.Workers),
		lr:   e.opt.LR,
	}
	w.srng.Seed(e.opt.Seed ^ (0xbf58476d1ce4e5b9 * uint64(id+1)))
	w.frng.Seed(e.opt.Seed ^ (0x9e3779b97f4a7c15 * uint64(id+1)))
	if c := e.opt.Faults.crashFor(id); c != nil {
		w.crashSpec = c
		if c.AtStart {
			// Never-started worker: dead at birth, detected purely by the
			// heartbeat it never produces.
			w.crashed = true
			w.crashesFired.Store(1)
		} else {
			w.crashArmAt.Store(c.AtPairs)
		}
	}
	w.stalls = e.opt.Faults.stallsFor(id)
	sort.Slice(w.stalls, func(i, j int) bool { return w.stalls[i].AtPairs < w.stalls[j].AtPairs })
	w.resumeEpoch = e.startEpoch
	w.resumeSeq = e.startBlock * e.blockSize
	w.cursor.Store(packCursor(w.resumeEpoch, w.resumeSeq))
	noise, tokens, err := e.noiseFor(id)
	if err != nil {
		return nil, err
	}
	w.noise, w.noiseTokens = noise, tokens

	w.hotIn = make([][]float32, len(e.hotIDs))
	w.hotOut = make([][]float32, len(e.hotIDs))
	w.hotInBase = make([][]float32, len(e.hotIDs))
	w.hotOutBase = make([][]float32, len(e.hotIDs))
	for i := range e.hotIDs {
		w.hotIn[i] = append([]float32(nil), e.hotIn[i]...)
		w.hotOut[i] = append([]float32(nil), e.hotOut[i]...)
		w.hotInBase[i] = append([]float32(nil), e.hotIn[i]...)
		w.hotOutBase[i] = append([]float32(nil), e.hotOut[i]...)
	}
	return w, nil
}

// saveCounters returns the worker's persistent counters in checkpoint
// order; restoreCounters is its inverse. workerCounterLen must match. The
// recovery slots (recovered pairs, restarts, takeover, crash-trigger
// state, the ever-dead flag) make a mid-chaos resume equivalent to the
// uninterrupted run: without them the resumed run would re-fire crashes
// that already happened, or forget a takeover.
func (w *worker) saveCounters() []uint64 {
	everDead := uint64(0)
	if w.e.everDead[w.id].Load() {
		everDead = 1
	}
	return []uint64{w.pairs.Load(), w.localPairs.Load(), w.remotePairs.Load(), w.servedPairs.Load(),
		w.bytesSent.Load(), w.hotSyncs.Load(), w.retries.Load(),
		w.recoveredPairs.Load(), w.restarts.Load(), w.takenOver.Load(), w.crashesFired.Load(),
		w.crashArmAt.Load(), w.remoteCalls.Load(), everDead}
}

func (w *worker) restoreCounters(c []uint64) {
	for i, dst := range []*atomic.Uint64{&w.pairs, &w.localPairs, &w.remotePairs, &w.servedPairs,
		&w.bytesSent, &w.hotSyncs, &w.retries,
		&w.recoveredPairs, &w.restarts, &w.takenOver, &w.crashesFired, &w.crashArmAt, &w.remoteCalls} {
		dst.Store(c[i])
	}
	if c[workerCounterLen-1] != 0 {
		w.e.everDead[w.id].Store(true)
	}
	// The resuming process is a fresh one: whatever incarnation wrote the
	// snapshot, its state (not its death) is what resumes. A crash whose
	// trigger already fired stays fired (crashArmAt was cleared at fire
	// time and restored as such), so the run does not re-crash.
	w.crashed = false
	if w.restarts.Load() > 0 || w.takenOver.Load() > 0 {
		w.replacement = true
		w.adopted = w.takenOver.Load() > 0
		w.incarnation = int(w.restarts.Load() + w.takenOver.Load())
		if w.adopted {
			w.stallIdx = len(w.stalls)
		}
	}
}

// reinit prepares the worker struct for its next incarnation; called by
// the supervisor after the previous goroutine fully exited (gone closed),
// so no field here is ever written concurrently with the old incarnation.
// The RNG streams are re-seeded from a dedicated (seed, partition,
// incarnation) function — never from the dead streams, whose exact stop
// position is timing-dependent — so replays under one seed stay
// deterministic. Counters carry over; hot replicas re-seed from the global
// store (the dead incarnation's un-synced deltas are lost: crash
// semantics); the scan resumes at the sequence the cursor froze on. The
// previous incarnation left no request in flight: every exit drains.
func (w *worker) reinit(adopted bool) {
	e := w.e
	w.incarnation++
	n := uint64(w.incarnation)
	id := uint64(w.id) + 1
	w.r.Seed(e.opt.Seed ^ (0x94d049bb133111eb * id) ^ (0xbf58476d1ce4e5b9 * n))
	w.srng.Seed(e.opt.Seed ^ (0xff51afd7ed558ccd * id) ^ (0xc4ceb9fe1a85ec53 * n))
	w.frng.Seed(e.opt.Seed ^ (0xd6e8feb86659fd93 * id) ^ (0xa0761d6478bd642f * n))
	w.crashed = false
	w.fenced.Store(false)
	w.replacement = true
	w.crashArmAt.Store(0)
	if adopted {
		w.adopted = true
	}
	if w.adopted {
		// The adopting machine is not the faulty one: no fault re-arm.
		w.stallIdx = len(w.stalls)
	} else if c := w.crashSpec; c != nil && int(w.crashesFired.Load()) < c.Times {
		// A resurrected machine carries its fault with it until the spec's
		// fire budget is spent — the way a scenario drives a partition
		// through its whole restart budget into takeover.
		if c.AtStart {
			w.crashed = true
			w.crashesFired.Add(1)
		} else {
			w.crashArmAt.Store(w.pairs.Load() + c.AtPairs)
		}
	}
	w.resumeEpoch, w.resumeSeq = unpackCursor(w.cursor.Load())
	e.hotMu.Lock()
	for i := range e.hotIDs {
		copy(w.hotIn[i], e.hotIn[i])
		copy(w.hotOut[i], e.hotOut[i])
		copy(w.hotInBase[i], e.hotIn[i])
		copy(w.hotOutBase[i], e.hotOut[i])
	}
	e.hotMu.Unlock()
	w.sincSync = 0
}

// run scans the corpus for opt.Epochs (in blocks, with a barrier after
// each, when checkpointing is on), then serves peers until the engine
// ends the transport's serve phase. The engine does that only after every
// partition has signalled scanDone, and remote calls happen only while
// scanning, so nothing new can arrive after the final drain.
//
// A crashed (or fenced) incarnation exits immediately and silently: no
// final hot push (un-synced deltas are lost), no serving, no state
// transition, no scanDone and no further barriers — the heartbeat just
// stops. Its replacement resumes from the cursor, arrives at the barriers
// the dead incarnation never reached, and signals scanDone when the
// partition's scan truly completes.
//
// Remote requests are one sequence deep (see endSequence). The window is
// drained — every request in flight settled — at the end of every block,
// however the scan leaves it, so no checkpoint barrier, final replica push
// or crash or fence exit ever sees a pair that is counted but not yet
// applied.
func (w *worker) run() {
	e := w.e
scan:
	for ep := w.resumeEpoch; ep < w.opt.Epochs; ep++ {
		s0 := 0
		if ep == w.resumeEpoch {
			s0 = w.resumeSeq
		}
		for b := s0 / e.blockSize; b < e.numBlocks; b++ {
			lo := max(b*e.blockSize, s0)
			hi := min(b*e.blockSize+e.blockSize, len(e.seqs))
			for i := lo; i < hi && !w.stopped(); i++ {
				w.at = packCursor(ep, i)
				w.markCursor()
				w.scanSequence(e.seqs[i])
			}
			w.drain()
			if w.stopped() {
				return
			}
			if e.ckptOn {
				w.blockBarrier(ep*e.numBlocks + b)
				// aborted is written before the engine releases the
				// barrier, so this read is ordered after the write.
				if e.aborted {
					break scan
				}
			}
		}
	}
	w.cursor.Store(packCursor(w.opt.Epochs, 0))
	// Final replica push so the engine's fold-in sees this worker's work.
	e.hotSync(w)
	e.state[w.id].Store(stateDone)
	e.scanDone <- struct{}{}
	// Serve peers until the engine ends the serve phase, then drain what
	// is already queued. Inboxes are never closed (a late TCP delivery
	// must not panic); Done is the end-of-service signal.
	inbox := e.tr.Inbox(w.id)
	done := e.tr.Done()
	for {
		select {
		case req := <-inbox:
			w.serve(req)
		case <-done:
			for {
				select {
				case req := <-inbox:
					w.serve(req)
				default:
					return
				}
			}
		}
	}
}

// blockBarrier runs one arrive → quiesce → ack → release cycle. Between
// arrival and quiesce the worker keeps serving (slower peers may still
// need remote TNS to finish the block); between ack and release it runs
// nothing, giving the engine a write-free window to snapshot. Stale
// abandoned requests left in the queue are deliberately NOT served here —
// serving would mutate the model mid-snapshot — they wait for the next
// scan phase's opportunistic drain.
func (w *worker) blockBarrier(k int) {
	e := w.e
	bar := &e.barriers[k]
	// Push replica deltas so the snapshot includes this worker's hot work.
	e.hotSync(w)
	e.state[w.id].Store(stateWaiting)
	bar.arrive <- struct{}{}
	inbox := e.tr.Inbox(w.id)
serving:
	for {
		select {
		case req := <-inbox:
			w.serve(req)
		case <-bar.quiesce:
			break serving
		}
	}
	bar.ack <- struct{}{}
	<-bar.release
	e.state[w.id].Store(stateScanning)
}

// scanSequence walks one sequence (sgns's walk). Every worker scans every
// sequence with its own RNG; a pair is trained only by its processor, so
// each pair is handled exactly once per scanning worker that owns it
// (Algorithm 1: "If v_i is not managed by Worker A, the pair is ignored").
// Local pairs train in place; remote pairs are recorded per owner and sent
// as the scan leaves the sequence — however it leaves it — after the
// previous sequence's replies are settled (endSequence).
func (w *worker) scanSequence(seq []int32) {
	e := w.e
	defer w.endSequence()
	// Scanning itself is liveness, even when this worker ends up training
	// no pair in the sequence (it may own nothing in this region).
	w.heartbeat.Add(1)
	kept := sgns.Subsample(w.kept, seq, e.keep, &w.r)
	w.lr = sgns.DecayLR(w.opt.LR, w.opt.MinLRFrac, e.scanTokens.Add(uint64(len(seq))), e.totalTokens*uint64(w.opt.Workers))
	for i := range kept {
		if w.stopped() {
			return
		}
		// Serve pending peer requests between window centers so a remote
		// caller is never stalled behind this worker's whole scan.
		w.maybeServe()
		lo, hi := w.walk.Span(&w.r, i, len(kept))
		for j := lo; j <= hi; j++ {
			// Someone else's pair is skipped; if its processor is dead,
			// the replacement retrains it from its cursor.
			if j == i || w.processor(kept[i], kept[j]) != w.id {
				continue
			}
			w.trainPair(kept[i], kept[j], i)
			if w.stopped() {
				return
			}
		}
	}
	w.maybeServe()
}

// stopped reports whether this incarnation must stop touching the model:
// it crashed, or the supervisor fenced it for replacement.
func (w *worker) stopped() bool {
	return w.crashed || w.fenced.Load()
}

// processor decides which worker trains the pair. Without replication it
// is always owner(v_i) (plain TNS). With ATNS replication, pairs whose
// target is hot are handled where the context lives, and hot-hot pairs are
// spread by hash — every such pair then needs no remote call at all.
func (w *worker) processor(vi, vj int32) int32 {
	e := w.e
	if e.hotIdx[vi] < 0 {
		return e.owner[vi]
	}
	if e.hotIdx[vj] < 0 {
		return e.owner[vj]
	}
	return int32((uint32(vi)*31 + uint32(vj)) % uint32(w.opt.Workers))
}

// trainPair handles pair (v_i, v_j) of window centre kept[i]: one
// positive+negatives update when out(v_j) is local, a record in the owner's
// buffer when it is not. Fault triggers fire here, on the pair counter — for
// a remote pair when it is recorded, not when it is sent — so a plan replays
// exactly under a seed.
func (w *worker) trainPair(vi, vj int32, i int) {
	e := w.e
	if arm := w.crashArmAt.Load(); arm > 0 && w.pairs.Load() >= arm {
		w.crashed = true
		w.crashesFired.Add(1)
		// Disarm so the trigger is one-shot per incarnation; reinit re-arms
		// it (relative to the pair count at restart) while the spec's fire
		// budget lasts, and the persisted zero keeps a resumed run from
		// re-firing a crash that already happened.
		w.crashArmAt.Store(0)
		return
	}
	for w.stallIdx < len(w.stalls) && w.pairs.Load() >= w.stalls[w.stallIdx].AtPairs {
		d := w.stalls[w.stallIdx].For
		w.stallIdx++
		time.Sleep(d)
	}
	w.heartbeat.Add(1)
	w.pairs.Add(1)
	if w.replacement {
		w.recoveredPairs.Add(1)
	}
	if e.hotIdx[vj] >= 0 || e.owner[vj] == w.id {
		w.localPairs.Add(1)
		vin := e.rowIn(w, vi)
		grad := w.tns(vin, vj, w.lr, &w.r)
		vecmath.Add(grad, vin)
	} else {
		w.recordRemote(e.owner[vj], vi, vj, i)
	}
	w.sincSync++
	if w.sincSync >= w.opt.SyncEvery && len(e.hotIDs) > 0 {
		w.sincSync = 0
		e.hotSync(w)
	}
}

// remoteBuf is one owner's share of the sequence being scanned: entry k is
// window centre centres[k] with counts[k] contexts, consecutive in ctxs — a
// tnsBatch minus the vectors, which are read when it is sent. at is the
// position in kept of the last entry's centre: the contexts of one centre
// share an entry, and a token that recurs as a later centre gets its own.
type remoteBuf struct {
	centres []int32
	counts  []int32
	ctxs    []int32
	at      int
}

// flight is one owner's request in flight: the entries send moved out of
// pend, the batch built from them (kept for re-sends), the sequence they
// came from, and the attempt on the wire.
type flight struct {
	remoteBuf
	b    tnsBatch
	seq  uint64        // packed position of the entries' sequence
	t    ticket        // the ticket of the attempt on the wire, when ok
	ok   bool          // the last attempt was delivered and awaits its reply
	left time.Duration // its deadline minus what its Send spent blocked
}

// maxBatchEntries caps the entries of one request: a full buffer is sent
// before the next centre is recorded, so a frame holds at most
// maxBatchEntries × (dim floats + 2·Window contexts) however long the
// sequence is.
const maxBatchEntries = 64

func (w *worker) recordRemote(dst, vi, vj int32, i int) {
	buf := &w.pend[dst]
	if n := len(buf.counts); n > 0 && buf.at == i {
		buf.counts[n-1]++
	} else {
		if n == maxBatchEntries {
			w.settle(dst)
			w.send(dst)
		}
		buf.centres = append(buf.centres, vi)
		buf.counts = append(buf.counts, 1)
		buf.at = i
	}
	buf.ctxs = append(buf.ctxs, vj)
}

// endSequence is the scan leaving a sequence: every owner's request from
// the previous sequence is settled, then this sequence's entries are sent.
// So remote requests are one sequence deep — at most one per owner in
// flight, sent and settled at points the scan fixes, never timing — and
// the peer serves a request while the requester scans its next sequence.
func (w *worker) endSequence() {
	w.drain()
	for dst := range w.pend {
		w.send(int32(dst))
	}
}

// drain settles every request in flight.
func (w *worker) drain() {
	for dst := range w.fly {
		w.settle(int32(dst))
	}
}

// markCursor publishes the durable cursor: the oldest sequence not yet
// settled — the one being scanned, or an earlier one whose request is
// still in flight. A replacement resumes there.
func (w *worker) markCursor() {
	c := w.at
	for i := range w.fly {
		if f := &w.fly[i]; len(f.counts) > 0 && f.seq < c {
			c = f.seq
		}
	}
	w.cursor.Store(c)
}

// send moves owner dst's recorded entries into its flight and delivers
// them in one request — the centres' input vectors as they are now, local
// pairs of the sequence included. The flight must be settled.
func (w *worker) send(dst int32) {
	if len(w.pend[dst].counts) == 0 {
		return
	}
	e := w.e
	f := &w.fly[dst]
	w.pend[dst], f.remoteBuf = f.remoteBuf, w.pend[dst]
	f.b.lr, f.b.counts, f.b.ctxs, f.b.vecs = w.lr, f.counts, f.ctxs, f.b.vecs[:0]
	for _, vi := range f.centres {
		f.b.vecs = append(f.b.vecs, e.rowIn(w, vi)...)
	}
	f.seq = w.at
	start := time.Now()
	f.ok = w.launch(dst, f)
	w.remoteBlockedNs.Add(int64(time.Since(start)))
}

// settle ends owner dst's request in flight and adds entry k's returned
// gradient to in(centres[k]). A request fails only because THIS
// incarnation was fenced; its pairs are then un-counted all at once — the
// replacement resumes from the cursor, which therefore stays on the
// entries' sequence, and retrains them.
func (w *worker) settle(dst int32) {
	f := &w.fly[dst]
	if len(f.counts) == 0 {
		return
	}
	e := w.e
	dim := w.opt.Dim
	n := uint64(len(f.ctxs))
	start := time.Now()
	grads, ok := w.await(dst, f)
	w.remoteBlockedNs.Add(int64(time.Since(start)))
	if ok {
		for k, vi := range f.centres {
			vecmath.Add(grads[k*dim:(k+1)*dim], e.rowIn(w, vi))
		}
		w.remotePairs.Add(n)
	} else {
		w.pairs.Add(-n)
		if w.replacement {
			w.recoveredPairs.Add(-n)
		}
	}
	f.centres, f.counts, f.ctxs = f.centres[:0], f.counts[:0], f.ctxs[:0]
	if ok {
		w.markCursor()
	}
}

// tns is Algorithm 1's TNS function run locally: positive update on
// out(v_j), negatives from the local noise distribution, returning the
// gradient for the input vector. The returned slice is w.grad (reused).
// A worker with no local noise distribution (owns nothing) trains the
// positive term only. r is the negative-sampling stream: w.r for the
// worker's own pairs, w.srng for served requests (see the field docs).
func (w *worker) tns(vin []float32, ctx int32, lr float32, r *rng.RNG) []float32 {
	e := w.e
	grad := w.grad
	vecmath.Zero(grad)

	// A false return is a non-finite row that slipped through (diverged
	// pair): skip it rather than poison the rest of the model.
	if !vecmath.PairStep(vin, e.rowOut(w, ctx), grad, 1, lr) || w.noise == nil {
		return grad
	}
	// Draw every negative and prefetch its row before stepping through
	// them in draw order, so the rows' cache misses overlap. Drawn after
	// the positive step, not before it as the local trainers do: a skipped
	// pair must keep consuming no draws.
	for n := range w.negs {
		t := w.noiseTokens[w.noise.Sample(r)]
		w.negs[n] = t
		vecmath.Prefetch(e.rowOut(w, t))
	}
	for _, t := range w.negs {
		if t == ctx {
			continue
		}
		// Negatives come from the local partition ∪ Q, so the row is
		// always locally writable.
		vecmath.PairStep(vin, e.rowOut(w, t), grad, 0, lr)
	}
	return grad
}

// launch starts an attempt of owner dst's request: one Transport.Send,
// serving incoming requests while it blocks (deadlock freedom; the
// transport calls back into w.serve). No attempt starts once this
// incarnation is fenced. RemoteTimeout bounds the time one attempt spends
// blocked — in Send and in Await together — so what Send spent is taken
// off Await's deadline.
//
// BytesSent stays the MODEL's payload accounting — lr, entry count, counts,
// contexts and vectors per attempted request, gradients per success —
// independent of what any transport serializes; Stats.WireBytesSent carries
// the measured figure, and the CostModel honesty test keeps the two within
// tolerance.
func (w *worker) launch(dst int32, f *flight) bool {
	if w.fenced.Load() {
		return false
	}
	e := w.e
	b := &f.b
	w.bytesSent.Add(8 + 4*uint64(len(b.counts)+len(b.ctxs)+len(b.vecs)))
	timeout := w.opt.remoteTimeout()
	start := time.Now()
	var ok bool
	f.t, ok = e.tr.Send(w.id, dst, b, timeout, w.serve)
	f.left = timeout - time.Since(start)
	return ok
}

// await takes the gradients answering owner dst's request in flight,
// re-sending it after a jittered exponential backoff (serving all the
// while) each time an attempt ends without a reply. A dead owner is
// guaranteed to come back (resurrection or takeover), so the attempt
// budget is unbounded — the only way out besides success is this
// incarnation itself being fenced, and a fenced incarnation takes no reply
// at all, so whether its pairs count never depends on when the fence
// landed. Transports use a fresh request (or request id) per attempt, so a
// late server answer to an abandoned attempt never blocks the server and
// never corrupts a newer attempt.
func (w *worker) await(dst int32, f *flight) ([]float32, bool) {
	e := w.e
	for a := 1; ; a++ {
		if w.fenced.Load() {
			return nil, false
		}
		if f.ok {
			if grads, ok := e.tr.Await(w.id, dst, f.t, f.left, w.serve); ok {
				w.bytesSent.Add(4 * uint64(len(grads)))
				w.remoteCalls.Add(1)
				return grads, true
			}
		}
		// Deadline fired: the worker is alive and deciding, which counts
		// as liveness for the watchdog.
		w.heartbeat.Add(1)
		w.retries.Add(1)
		if !w.backoffWait(a) {
			return nil, false // fenced while backing off
		}
		f.ok = w.launch(dst, f)
	}
}

// backoffWait sleeps the jittered exponential backoff before retry
// attempt a (a >= 1), serving this worker's own queue while it waits so
// backoff can never deadlock the request mesh. Jitter comes from frng so
// the training stream is untouched. Returns false if the incarnation was
// fenced while waiting.
func (w *worker) backoffWait(a int) bool {
	base := w.opt.retryBackoff()
	if base <= 0 {
		return !w.fenced.Load()
	}
	shift := a - 1
	if shift > 6 {
		shift = 6 // bound the exponent: 64x base is the ceiling
	}
	d := time.Duration(float64(base<<shift) * (0.5 + w.frng.Float64()))
	timer := time.NewTimer(d)
	defer timer.Stop()
	// Backing off is deliberate waiting, not death: beat the heartbeat at
	// the monitor's own cadence so a long (64x) backoff against a dead peer
	// never gets THIS worker declared dead too.
	beat := time.NewTicker(w.opt.heartbeatEvery())
	defer beat.Stop()
	inbox := w.e.tr.Inbox(w.id)
	for {
		if w.fenced.Load() {
			return false
		}
		select {
		case in := <-inbox:
			w.serve(in)
		case <-beat.C:
			w.heartbeat.Add(1)
		case <-timer.C:
			return true
		}
	}
}

// serve executes a TNS request against this worker's rows: each entry's
// contexts in order, every gradient folded into the entry's vector before
// the next context (what the requester would do between one-pair calls),
// and their sum returned as the entry's gradient.
func (w *worker) serve(req *tnsReq) {
	if w.opt.SlowWorker == int(w.id) && w.opt.SlowWorkerDelay > 0 {
		time.Sleep(w.opt.SlowWorkerDelay)
	}
	w.heartbeat.Add(1)
	w.servedPairs.Add(uint64(len(req.ctxs)))
	dim := w.opt.Dim
	grads := make([]float32, len(req.vecs))
	ctxs := req.ctxs
	for k, n := range req.counts {
		vin, sum := req.vecs[k*dim:(k+1)*dim], grads[k*dim:(k+1)*dim]
		for _, ctx := range ctxs[:n] {
			grad := w.tns(vin, ctx, req.lr, &w.srng)
			vecmath.Add(grad, vin)
			vecmath.Add(grad, sum)
		}
		ctxs = ctxs[n:]
	}
	req.reply(grads)
}

// maybeServe opportunistically drains the inbox between sequences so a
// worker that finished its share early still serves peers promptly.
func (w *worker) maybeServe() {
	inbox := w.e.tr.Inbox(w.id)
	for {
		select {
		case req := <-inbox:
			w.serve(req)
		default:
			return
		}
	}
}
