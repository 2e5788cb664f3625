package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sisg/internal/alias"
	"sisg/internal/checkpoint"
	"sisg/internal/emb"
	"sisg/internal/graph"
	"sisg/internal/rng"
	"sisg/internal/sgns"
	"sisg/internal/vocab"
)

// tnsBatch is the payload of one remote TNS request (Algorithm 1, line 7,
// a sequence's worth at a time): entry k is one window centre v_i of the
// requester — a copy of in(v_i) in vecs[k*dim:(k+1)*dim] — and the counts[k]
// contexts of that centre the receiving worker owns, consecutive in ctxs.
// The receiver trains each entry's contexts in order against the entry's
// vector, folding every gradient into it before the next context, and
// answers one summed input gradient per entry.
type tnsBatch struct {
	lr     float32
	counts []int32   // contexts per entry
	ctxs   []int32   // every entry's contexts, entry order
	vecs   []float32 // len(counts) × dim; the receiver's to overwrite
}

// clone returns a batch sharing nothing with b: the receiver writes into
// vecs, and may still be reading an abandoned attempt after the requester
// has reused its buffers for the next one.
func (b *tnsBatch) clone() tnsBatch {
	return tnsBatch{
		lr:     b.lr,
		counts: append([]int32(nil), b.counts...),
		ctxs:   append([]int32(nil), b.ctxs...),
		vecs:   append([]float32(nil), b.vecs...),
	}
}

// tnsReq is one delivery attempt of a batch, answered once through reply.
// Over chan each attempt has its own 1-buffered reply channel, so a server
// answering a request its requester already abandoned (deadline expired,
// incarnation fenced) never blocks; over tcp the reply frame is written to
// the connection the request came in on. The reply is len(counts) × dim:
// entry k's summed gradient for in(v_i).
type tnsReq struct {
	tnsBatch
	ch chan []float32 // chan: the attempt's reply channel
	in *inConn        // tcp: the connection to answer on
	id uint64         // tcp: the request id the reply frame carries
}

// reply answers the request on the goroutine that took it from the inbox.
func (r *tnsReq) reply(grads []float32) {
	if r.in != nil {
		r.in.reply(r.id, grads)
		return
	}
	r.ch <- grads
}

// Worker lifecycle states, as seen by the health monitor. Only a scanning
// worker can be declared dead: one paused at a checkpoint barrier or done
// with its scan is idle by design, not by failure. A crashed worker never
// reports a state change — crashing silently is the point — so it stays
// "scanning" with a frozen heartbeat until the monitor flags it.
const (
	stateScanning int32 = iota
	stateWaiting
	stateDone
)

// blockBarrier synchronizes one checkpoint cut. The protocol is
// arrive → quiesce → ack → release: workers keep serving between arrival
// and quiesce (a peer may still be mid-scan and need remote TNS), and
// between ack and release nothing runs, so the engine snapshots a frozen,
// race-free view of the model and hot store.
type blockBarrier struct {
	arrive  chan struct{} // workers announce block completion (cap W)
	quiesce chan struct{} // closed by the engine once all W arrived
	ack     chan struct{} // workers confirm they stopped serving (cap W)
	release chan struct{} // closed by the engine after the snapshot
}

type engine struct {
	dict *vocab.Dict
	seqs [][]int32
	opt  Options

	owner  []int32 // token -> owning worker
	hotIdx []int32 // token -> index into the hot set, or -1
	hotIDs []int32 // hot set Q

	model *emb.Model

	// Global hot store (mutex-guarded; synchronizations are infrequent).
	hotMu  sync.Mutex
	hotIn  [][]float32
	hotOut [][]float32

	counts      []uint64
	noiseW      []float64 // count^NoiseAlpha per token
	keep        []float32
	totalTokens uint64 // corpus tokens × epochs (per worker scan)
	maxLen      int    // longest sequence, in tokens

	// tr moves TNS requests between workers: the in-process channel mesh
	// by default, real loopback TCP when Options.Transport says so, either
	// one wrapped in the fault decorator when the plan injects wire
	// faults. See transport.go.
	tr         Transport
	scanDone   chan struct{} // one message per worker when its scan role ends
	scanTokens atomic.Uint64

	// Health tracking: the monitor samples each worker's heartbeat (a field
	// of the worker, in its padded block) and keeps dead flags (cleared when
	// a replacement spawns). everDead is the cumulative ledger backing
	// Stats.DeadWorkers — a resurrected worker stays on it.
	state    []atomic.Int32
	dead     []atomic.Bool
	everDead []atomic.Bool
	stopMon  chan struct{}
	monWG    sync.WaitGroup

	// Recovery: the supervisor respawns dead partitions. spawnMu
	// serializes replacement spawns against shutdown; draining (guarded by
	// spawnMu) means the run is past its last scanDone and no replacement
	// may start. host maps partition -> hosting machine (diverges from
	// identity on takeover).
	wwg      sync.WaitGroup // all worker goroutines, incl. replacements
	supWG    sync.WaitGroup // in-flight recover() calls
	spawnMu  sync.Mutex
	draining bool
	host     []int32

	// Checkpointing (set when opt.CheckpointDir and CheckpointEvery are
	// both set): scanning proceeds in sequence blocks with a barrier after
	// each, where the engine may cut a snapshot.
	ckptOn                 bool
	fp                     uint64
	blockSize, numBlocks   int
	startEpoch, startBlock int
	barriers               []blockBarrier
	lastCkptPairs          uint64
	ckptErr                error
	aborted                bool // written during a quiesce window only

	workers []*worker
}

func newEngine(dict *vocab.Dict, seqs [][]int32, part *graph.Partition, opt Options) (*engine, error) {
	e := &engine{dict: dict, seqs: seqs, opt: opt}
	w := opt.Workers

	// Token ownership: items from the partition; everything else hashed
	// (the paper assigns SI and user types to partitions randomly).
	e.owner = make([]int32, dict.Len())
	numItems := len(part.Of)
	for t := 0; t < dict.Len(); t++ {
		if t < numItems {
			e.owner[t] = part.Of[t]
		} else {
			e.owner[t] = int32((uint32(t) * 2654435761) % uint32(w))
		}
	}

	// Corpus frequencies drive the noise distributions, subsampling and
	// the hot set.
	e.counts = make([]uint64, dict.Len())
	var corpusTokens uint64
	for _, s := range seqs {
		for _, t := range s {
			e.counts[t]++
		}
		corpusTokens += uint64(len(s))
		e.maxLen = max(e.maxLen, len(s))
	}
	e.totalTokens = corpusTokens * uint64(opt.Epochs)
	if e.totalTokens == 0 {
		e.totalTokens = 1
	}
	if opt.SubsampleT > 0 {
		e.keep = sgns.KeepProbs(dict, e.counts, corpusTokens, opt.SubsampleT, opt.SIBoost)
	}
	e.noiseW = sgns.NoiseWeights(e.counts, opt.NoiseAlpha)

	// Hot set Q (§III-C step 4).
	e.hotIdx = make([]int32, dict.Len())
	for i := range e.hotIdx {
		e.hotIdx[i] = -1
	}
	if opt.HotReplication {
		e.hotIDs = selectHot(e.counts, opt.HotThreshold, opt.HotTopK)
		for i, id := range e.hotIDs {
			e.hotIdx[id] = int32(i)
		}
	}

	master := rng.New(opt.Seed)
	e.model = emb.NewModel(dict.Len(), opt.Dim, master)

	// Global hot store seeded from the model.
	e.hotIn = make([][]float32, len(e.hotIDs))
	e.hotOut = make([][]float32, len(e.hotIDs))
	for i, id := range e.hotIDs {
		e.hotIn[i] = append([]float32(nil), e.model.In.Row(id)...)
		e.hotOut[i] = append([]float32(nil), e.model.Out.Row(id)...)
	}

	e.scanDone = make(chan struct{}, w)
	e.state = make([]atomic.Int32, w)
	e.dead = make([]atomic.Bool, w)
	e.everDead = make([]atomic.Bool, w)
	e.stopMon = make(chan struct{})
	e.host = make([]int32, w)
	for i := range e.host {
		e.host[i] = int32(i)
	}

	// Checkpoint geometry. Without checkpointing each epoch is a single
	// block with no barriers — the classic free-running schedule.
	e.ckptOn = opt.CheckpointDir != "" && opt.CheckpointEvery > 0
	e.blockSize = len(seqs)
	if e.ckptOn && e.blockSize > checkpointBlockSeqs {
		e.blockSize = checkpointBlockSeqs
	}
	if e.blockSize < 1 {
		e.blockSize = 1
	}
	e.numBlocks = (len(seqs) + e.blockSize - 1) / e.blockSize
	if e.numBlocks < 1 {
		e.numBlocks = 1
	}
	// Run identity for snapshot compatibility: the sgns hyper-parameters
	// plus everything distributed that shapes the model. Fault-injection
	// and timeout knobs are deliberately excluded — restarting a faulted
	// run without the fault plan is the expected recovery move.
	e.fp = opt.Options.Fingerprint("dist", dict.Len(), len(seqs), opt.Workers,
		opt.HotReplication, opt.HotThreshold, opt.HotTopK, opt.SyncEvery)
	if e.ckptOn {
		e.barriers = make([]blockBarrier, opt.Epochs*e.numBlocks)
		for i := range e.barriers {
			e.barriers[i] = blockBarrier{
				arrive:  make(chan struct{}, w),
				quiesce: make(chan struct{}),
				ack:     make(chan struct{}, w),
				release: make(chan struct{}),
			}
		}
	}

	var snap *checkpoint.Snapshot
	if opt.Resume && opt.CheckpointDir != "" && checkpoint.Exists(opt.CheckpointDir) {
		var err error
		snap, err = checkpoint.Load(opt.CheckpointDir)
		if err != nil {
			return nil, fmt.Errorf("dist: resume: %w", err)
		}
		if err := snap.CheckOptions(e.fp); err != nil {
			return nil, fmt.Errorf("dist: resume: %w", err)
		}
		if len(snap.RNGs) != w {
			return nil, fmt.Errorf("dist: resume: snapshot has %d workers, run has %d", len(snap.RNGs), w)
		}
		if snap.Model.Vocab() != e.model.Vocab() || snap.Model.Dim() != e.model.Dim() {
			return nil, fmt.Errorf("dist: resume: snapshot model %d×%d, run %d×%d",
				snap.Model.Vocab(), snap.Model.Dim(), e.model.Vocab(), e.model.Dim())
		}
		if len(snap.HotIn) != len(e.hotIDs) {
			return nil, fmt.Errorf("dist: resume: snapshot has %d hot rows, run has %d", len(snap.HotIn), len(e.hotIDs))
		}
		if len(snap.Counters) != 1+workerCounterLen*w {
			return nil, fmt.Errorf("dist: resume: snapshot has %d counters, want %d", len(snap.Counters), 1+workerCounterLen*w)
		}
		copy(e.model.In.Data(), snap.Model.In.Data())
		copy(e.model.Out.Data(), snap.Model.Out.Data())
		for i := range e.hotIDs {
			copy(e.hotIn[i], snap.HotIn[i])
			copy(e.hotOut[i], snap.HotOut[i])
		}
		e.scanTokens.Store(snap.Counters[0])
		e.startEpoch, e.startBlock = snap.Epoch, snap.Block
		e.lastCkptPairs = 0 // recomputed below once workers are restored
	}

	e.workers = make([]*worker, w)
	for i := 0; i < w; i++ {
		wk, err := newWorker(e, i, master.Split())
		if err != nil {
			return nil, err
		}
		e.workers[i] = wk
	}
	if snap != nil {
		for i, wk := range e.workers {
			wk.r.SetState(snap.RNGs[i])
			wk.restoreCounters(snap.Counters[1+i*workerCounterLen : 1+(i+1)*workerCounterLen])
			// A takeover that happened before the snapshot persists across
			// the resume: rebuild the host map (no one is dead in the fresh
			// process, so the adopter is ring-next).
			if wk.takenOver.Load() > 0 {
				e.host[i] = e.adopterFor(int32(i))
			}
			// Replicas re-seed from the restored global hot store.
			for h := range e.hotIDs {
				copy(wk.hotIn[h], e.hotIn[h])
				copy(wk.hotOut[h], e.hotOut[h])
				copy(wk.hotInBase[h], e.hotIn[h])
				copy(wk.hotOutBase[h], e.hotOut[h])
			}
		}
		e.lastCkptPairs = e.totalPairs()
	}
	// Last, so no earlier validation failure can leak its listeners: the
	// transport is the only engine resource that must be torn down.
	tr, err := newTransport(&e.opt)
	if err != nil {
		return nil, err
	}
	e.tr = tr
	return e, nil
}

// checkpointBlockSeqs is the sgns trainer's block granularity.
const checkpointBlockSeqs = sgns.CheckpointBlockSeqs

// workerCounterLen is the per-worker slot count in a snapshot's Counters
// (see worker.saveCounters). Recovery state (recovered pairs, restarts,
// takeover flag, the ever-dead ledger bit) and crash-trigger state (fired
// count, armed position) must survive a mid-chaos resume, or the resumed run
// would re-fire crashes that already happened and diverge from the
// uninterrupted run; RemoteCalls is part of the replayed accounting. A
// snapshot with another slot count is refused.
const workerCounterLen = 14

// selectHot returns the shared set Q: tokens above the frequency threshold,
// or the top-K most frequent when threshold is zero.
func selectHot(counts []uint64, threshold uint64, topK int) []int32 {
	if threshold > 0 {
		var out []int32
		for t, c := range counts {
			if c >= threshold {
				out = append(out, int32(t))
			}
		}
		return out
	}
	if topK <= 0 {
		return nil
	}
	// Partial selection of the topK most frequent tokens, kept sorted by
	// descending count (insertion into a small array).
	type tc struct {
		t int32
		c uint64
	}
	sortTC := func(s []tc) {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j].c > s[j-1].c; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
	}
	best := make([]tc, 0, topK)
	for t, c := range counts {
		if c == 0 {
			continue
		}
		if len(best) < topK {
			best = append(best, tc{int32(t), c})
			if len(best) == topK {
				sortTC(best)
			}
			continue
		}
		if c > best[topK-1].c {
			best[topK-1] = tc{int32(t), c}
			for i := topK - 1; i > 0 && best[i].c > best[i-1].c; i-- {
				best[i], best[i-1] = best[i-1], best[i]
			}
		}
	}
	if len(best) < topK {
		sortTC(best)
	}
	out := make([]int32, len(best))
	for i, b := range best {
		out[i] = b.t
	}
	return out
}

// run starts the workers and the health monitor, orchestrates checkpoint
// barriers, shuts the request mesh down through the transport (end of
// serve phase, then full teardown) once every partition has finished its
// scan, merges hot replicas back into the model, and aggregates
// statistics.
func (e *engine) run() (*emb.Model, Stats, error) {
	start := time.Now()
	stopObservers := e.startObservers()
	e.monWG.Add(1)
	go e.monitor()

	e.spawnMu.Lock()
	for _, wk := range e.workers {
		e.spawnWorker(wk)
	}
	e.spawnMu.Unlock()

	if e.ckptOn {
		e.orchestrateBarriers()
	}

	// Shutdown: when a partition's scan role ends it signals once — only
	// the incarnation that completes all epochs signals (a crashed one
	// exits silently and its replacement carries the role, so every crash
	// was declared dead before its partition's signal). Remote calls only
	// happen while scanning, so after the W-th signal
	// nothing new can be sent and ending the serve phase is safe;
	// surviving workers drain what is queued and exit when the
	// transport's done channel closes — no polling, no sleeps. Full
	// transport teardown (connections, listeners) waits until every
	// worker goroutine has exited, because late TCP deliveries may still
	// be in flight toward the inboxes.
	for n := 0; n < e.opt.Workers; n++ {
		<-e.scanDone
	}
	e.spawnMu.Lock()
	e.draining = true // any recover() still in flight becomes a no-op
	e.spawnMu.Unlock()
	e.tr.CloseInboxes()
	e.wwg.Wait()
	_ = e.tr.Close() // teardown of an already-drained transport (error deliberately dropped)
	close(e.stopMon)
	e.monWG.Wait()
	e.supWG.Wait()
	stopObservers() // final Done progress snapshot; registry gauges stay readable

	// Fold the final hot values back into the model rows.
	for i, id := range e.hotIDs {
		copy(e.model.In.Row(id), e.hotIn[i])
		copy(e.model.Out.Row(id), e.hotOut[i])
	}

	st := Stats{
		Workers:        e.opt.Workers,
		Elapsed:        time.Since(start),
		Tokens:         e.totalTokens, // corpus tokens × epochs, cluster-level
		HotTokens:      len(e.hotIDs),
		PairsPerWorker: make([]uint64, e.opt.Workers),
	}
	for i, wk := range e.workers {
		st.Pairs += wk.pairs.Load()
		st.LocalPairs += wk.localPairs.Load()
		st.RemotePairs += wk.remotePairs.Load()
		st.RemoteCalls += wk.remoteCalls.Load()
		st.RemoteBlocked += time.Duration(wk.remoteBlockedNs.Load())
		st.BytesSent += wk.bytesSent.Load()
		st.HotSyncs += wk.hotSyncs.Load()
		st.Retries += wk.retries.Load()
		st.Restarts += wk.restarts.Load()
		st.Takeovers += wk.takenOver.Load()
		st.RecoveredPairs += wk.recoveredPairs.Load()
		st.PairsPerWorker[i] = wk.pairs.Load()
		if e.everDead[i].Load() {
			st.DeadWorkers = append(st.DeadWorkers, i)
		}
	}
	if st.Takeovers > 0 {
		st.Hosts = append([]int32(nil), e.host...)
	}
	ts := e.tr.Stats()
	st.WireBytesSent = ts.BytesSent
	st.WireBytesRecv = ts.BytesReceived
	st.WireFrames = ts.FramesSent
	st.Reconnects = ts.Reconnects
	st.SimElapsed = e.simElapsed()
	return e.model, st, e.ckptErr
}

// spawnWorker launches one incarnation of a worker (initial or
// replacement); the caller must hold spawnMu (it guards wk.gone and
// draining). The per-incarnation gone channel lets the supervisor wait
// for the previous incarnation to fully exit before handing its partition
// to the next one — the fencing that makes a false-positive death (a
// stalled worker the monitor gave up on) safe: two incarnations of one
// partition never run concurrently.
func (e *engine) spawnWorker(wk *worker) {
	gone := make(chan struct{})
	wk.gone = gone
	e.wwg.Add(1)
	go func() {
		defer e.wwg.Done()
		defer close(gone)
		wk.run()
	}()
}

// recover is the supervisor's response to one death: fence and wait out
// the old incarnation, then either resurrect the partition on its own
// machine (budget left) or hand it to a surviving adopter (takeover). One
// recover goroutine runs per death event; deaths of different partitions
// recover concurrently, deaths of the same partition are naturally
// serialized (a partition must be live again before it can die again).
func (e *engine) recover(id int32) {
	defer e.supWG.Done()
	wk := e.workers[id]
	wk.fenced.Store(true)
	// wk.gone is written by spawnWorker under spawnMu; a death detected by
	// a NON-changing heartbeat carries no happens-before edge from that
	// write, so the read must take the lock too. No newer incarnation can
	// appear while we wait: deaths of one partition are serialized through
	// this very function.
	e.spawnMu.Lock()
	gone := wk.gone
	e.spawnMu.Unlock()
	<-gone

	// A false positive on a worker that went on to finish its scan: the
	// partition is complete, nothing to recover.
	if ep, _ := unpackCursor(wk.cursor.Load()); ep >= e.opt.Epochs {
		return
	}
	restarts := wk.restarts.Load()
	resurrect := int(restarts) < e.opt.maxRestarts()
	if resurrect {
		e.sleepBackoff(id, restarts)
	}

	e.spawnMu.Lock()
	defer e.spawnMu.Unlock()
	if e.draining {
		return
	}
	if resurrect {
		wk.restarts.Add(1)
		wk.reinit(false)
	} else {
		// Routing stays static (owner[] is immutable): the adopter hosts
		// the partition's rows and request queue.
		wk.takenOver.Store(1)
		e.host[id] = e.adopterFor(id)
		wk.reinit(true)
	}
	e.dead[id].Store(false)
	e.state[id].Store(stateScanning)
	wk.heartbeat.Add(1) // fresh beat: the monitor's stillness clock restarts
	e.spawnWorker(wk)
}

// sleepBackoff delays a resurrection: base × 2^restarts, jittered ±50%
// from a deterministic per-(partition, restart) stream so fault decisions
// never touch the training RNGs.
func (e *engine) sleepBackoff(id int32, restarts uint64) {
	d := e.opt.restartBackoff()
	shift := restarts
	if shift > 6 {
		shift = 6
	}
	d <<= shift
	r := rng.New(e.opt.Seed ^ (0xa0761d6478bd642f * (uint64(id) + 1)) ^ (0xe7037ed1a0b428db * (restarts + 1)))
	d = time.Duration(float64(d) * (0.5 + r.Float64()))
	if d > 0 {
		time.Sleep(d)
	}
}

// adopterFor picks the takeover host for a dead partition: the first
// machine after it in ring order that is not itself currently dead.
func (e *engine) adopterFor(id int32) int32 {
	n := int32(e.opt.Workers)
	for i := int32(1); i < n; i++ {
		c := (id + i) % n
		if !e.dead[c].Load() {
			return c
		}
	}
	return id // everyone dead at once: keep it home (still re-hosted)
}

// orchestrateBarriers drives the arrive → quiesce → ack → release protocol
// for every block barrier, cutting a snapshot whenever CheckpointEvery
// pairs have accumulated since the last one (and always at the final
// barrier, so a finished run resumes as a no-op).
func (e *engine) orchestrateBarriers() {
	w := e.opt.Workers
	k0 := e.startEpoch*e.numBlocks + e.startBlock
	for k := k0; k < len(e.barriers); k++ {
		bar := &e.barriers[k]
		for n := 0; n < w; n++ {
			<-bar.arrive
		}
		close(bar.quiesce)
		for n := 0; n < w; n++ {
			<-bar.ack
		}
		// Quiesced: no worker is scanning or serving, so the model, hot
		// store, RNG states and counters are a consistent cut.
		pairs := e.totalPairs()
		final := k == len(e.barriers)-1
		halting := e.opt.HaltAfterBarriers > 0 && k+1-k0 >= e.opt.HaltAfterBarriers
		if e.ckptErr == nil && (final || halting || pairs-e.lastCkptPairs >= e.opt.CheckpointEvery) {
			if err := e.saveCheckpoint(k + 1); err != nil {
				e.ckptErr = fmt.Errorf("dist: checkpoint: %w", err)
			} else {
				e.lastCkptPairs = pairs
			}
		}
		if halting && !final && e.ckptErr == nil {
			// Simulated process kill at this quiesce point: the snapshot
			// just cut is the resume point. Workers observe aborted after
			// release and stop scanning.
			e.aborted = true
			e.ckptErr = ErrHalted
			close(bar.release)
			return
		}
		if checkpointAbortHook != nil && checkpointAbortHook(k) {
			// Test-only simulated process kill: stop the run at this
			// quiesce point. Workers observe aborted after release and
			// stop scanning, so the saved snapshot is the resume point.
			e.aborted = true
			e.ckptErr = errAbortHook
			close(bar.release)
			return
		}
		close(bar.release)
	}
}

// ErrHalted reports a run stopped by Options.HaltAfterBarriers: a clean,
// resumable interruption with a snapshot on disk, not a failure.
var ErrHalted = errors.New("dist: run halted after requested barrier count (resumable)")

// packCursor encodes a worker's durable scan position — the oldest
// sequence not yet settled, which a replacement (re)scans first — into one
// atomic word; epoch >= Epochs means the partition completed its scan.
func packCursor(epoch, seq int) uint64 { return uint64(epoch)<<32 | uint64(uint32(seq)) }

func unpackCursor(c uint64) (epoch, seq int) { return int(c >> 32), int(uint32(c)) }

// checkpointAbortHook, when set by a test, is invoked at each barrier's
// quiesce point (after any snapshot); returning true kills the run there,
// simulating a process death right after a checkpoint.
var checkpointAbortHook func(k int) bool

var errAbortHook = errors.New("dist: run aborted by test hook")

func (e *engine) totalPairs() uint64 {
	var p uint64
	for _, wk := range e.workers {
		p += wk.pairs.Load()
	}
	return p
}

// saveCheckpoint writes the snapshot describing a resume position of
// global barrier index k (epoch k/numBlocks, block k%numBlocks).
func (e *engine) saveCheckpoint(k int) error {
	counters := make([]uint64, 1, 1+workerCounterLen*len(e.workers))
	counters[0] = e.scanTokens.Load()
	rngs := make([][4]uint64, len(e.workers))
	for i, wk := range e.workers {
		counters = append(counters, wk.saveCounters()...)
		rngs[i] = wk.r.State()
	}
	return checkpoint.Save(e.opt.CheckpointDir, &checkpoint.Snapshot{
		OptionsHash: e.fp,
		Epoch:       k / e.numBlocks,
		Block:       k % e.numBlocks,
		Counters:    counters,
		RNGs:        rngs,
		Model:       e.model,
		HotIn:       e.hotIn,
		HotOut:      e.hotOut,
	})
}

// monitor is the heartbeat watchdog: it samples every worker's heartbeat
// counter at heartbeatEvery intervals and declares a worker dead once the
// counter has sat still for deadAfter while the worker claims to be
// scanning. A false positive (a worker stalled past the threshold that
// later wakes) is safe: the supervisor fences the stalled incarnation and
// waits for it to exit before a replacement resumes from its cursor, so
// two incarnations of one partition never run at once.
func (e *engine) monitor() {
	defer e.monWG.Done()
	every := e.opt.heartbeatEvery()
	deadAfter := e.opt.deadAfter()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	w := e.opt.Workers
	last := make([]uint64, w)
	still := make([]time.Duration, w)
	for {
		select {
		case <-e.stopMon:
			return
		case <-ticker.C:
			for i := 0; i < w; i++ {
				if e.dead[i].Load() || e.state[i].Load() != stateScanning {
					still[i] = 0
					continue
				}
				hb := e.workers[i].heartbeat.Load()
				if hb != last[i] {
					last[i] = hb
					still[i] = 0
					continue
				}
				still[i] += every
				if still[i] >= deadAfter {
					e.markDead(int32(i))
				}
			}
		}
	}
}

// markDead flags a worker as failed and dispatches a supervisor goroutine
// to re-host the partition; the dead flag is cleared again when the
// replacement spawns, so the CAS can succeed once per incarnation.
func (e *engine) markDead(id int32) {
	if !e.dead[id].CompareAndSwap(false, true) {
		return
	}
	e.everDead[id].Store(true)
	e.spawnMu.Lock()
	if !e.draining {
		e.supWG.Add(1)
		go e.recover(id)
	}
	e.spawnMu.Unlock()
}

// simElapsed applies the cost model to the measured per-worker counters:
// the cluster finishes when its slowest worker does (makespan), plus the
// fixed startup overhead. See CostModel for the constituent terms.
func (e *engine) simElapsed() time.Duration {
	cm := e.opt.Cost
	if cm == (CostModel{}) {
		cm = DefaultCostModel()
	}
	dim := float64(e.opt.Dim)
	// Per-update compute cost, scaled from the reference shape and
	// inflated by the cache-miss factor of the full vector table.
	pairNs := cm.PairUpdateNs * (dim / 32) * (float64(1+e.opt.Negatives) / 6)
	vocabBytes := float64(e.dict.Len()) * dim * 2 * 4 // in + out, float32
	miss := 0.0
	if vocabBytes > cm.CacheBytes && vocabBytes > 0 {
		miss = cm.MissPenalty * (1 - cm.CacheBytes/vocabBytes)
	}
	pairNs *= 1 + miss

	var worst float64
	for _, wk := range e.workers {
		compute := float64(wk.pairs.Load()-wk.remotePairs.Load()+wk.servedPairs.Load()) * pairNs
		// The requester also pays the (overlapped) round-trip latency and
		// its share of NIC time.
		comm := float64(wk.remotePairs.Load())*cm.RemoteRTTNs +
			float64(wk.bytesSent.Load())/cm.BandwidthBytes*1e9
		if t := compute + comm; t > worst {
			worst = t
		}
	}
	startup := cm.StartupNsPerVocab * float64(e.dict.Len())
	return time.Duration(worst + startup)
}

// hotSync pushes a worker's replica deltas into the global store and pulls
// the merged values — the "synchronized (averaged) at regular intervals"
// mechanism of §III-A.
func (e *engine) hotSync(w *worker) {
	if len(e.hotIDs) == 0 {
		return
	}
	e.hotMu.Lock()
	for i := range e.hotIDs {
		applyDelta(e.hotIn[i], w.hotIn[i], w.hotInBase[i])
		applyDelta(e.hotOut[i], w.hotOut[i], w.hotOutBase[i])
		copy(w.hotIn[i], e.hotIn[i])
		copy(w.hotOut[i], e.hotOut[i])
		copy(w.hotInBase[i], e.hotIn[i])
		copy(w.hotOutBase[i], e.hotOut[i])
	}
	e.hotMu.Unlock()
	w.hotSyncs.Add(1)
	// Simulated cost: full hot set both directions.
	w.bytesSent.Add(uint64(len(e.hotIDs)) * uint64(e.opt.Dim) * 4 * 2)
}

func applyDelta(global, local, base []float32) {
	for i := range global {
		global[i] += local[i] - base[i]
	}
}

// noiseFor builds worker w's local noise distribution over its partition
// plus the shared hot set (§III-C: "every worker maintains its own noise
// distribution for the elements of P_j ∪ Q"). Replicated (hot) tokens
// appear in every worker's distribution, so their weight is divided by the
// worker count: the aggregate negative-sampling rate of a hot token then
// matches its global unigram^α rate. Without this, hot tokens absorb ~w×
// their fair share of negative updates, their output vectors blow up, and
// training diverges at high worker counts.
//
// A negative update writes the sampled token's OUTPUT row, so the
// distribution may only ever contain rows this worker can safely write:
// its own partition (replicas of hot rows are per-worker, so those are
// safe everywhere). A degenerate partition — the worker owns no token that
// appears in the corpus — therefore falls back to a uniform distribution
// over the worker's own partition ∪ Q, NOT over the full vocabulary:
// full-vocabulary negatives would race with the owners of those rows. A
// worker that owns nothing at all gets a nil table and trains
// positive-only (it can only be reached via replicated hot pairs).
func (e *engine) noiseFor(id int) (*alias.Table, []int32, error) {
	var tokens []int32
	weights := []float64{}
	for t := 0; t < e.dict.Len(); t++ {
		if e.counts[t] == 0 {
			continue
		}
		if e.owner[t] == int32(id) || e.hotIdx[t] >= 0 {
			w := e.noiseW[t]
			if e.hotIdx[t] >= 0 {
				w /= float64(e.opt.Workers)
			}
			tokens = append(tokens, int32(t))
			weights = append(weights, w)
		}
	}
	if len(tokens) == 0 {
		for t := 0; t < e.dict.Len(); t++ {
			if e.owner[t] == int32(id) || e.hotIdx[t] >= 0 {
				tokens = append(tokens, int32(t))
				weights = append(weights, 1)
			}
		}
	}
	if len(tokens) == 0 {
		return nil, nil, nil
	}
	tab, err := alias.New(weights)
	if err != nil {
		return nil, nil, err
	}
	return tab, tokens, nil
}

// rowIn returns the in-vector visible to worker w for token t.
func (e *engine) rowIn(w *worker, t int32) []float32 {
	if hi := e.hotIdx[t]; hi >= 0 {
		return w.hotIn[hi]
	}
	return e.model.In.Row(t)
}

// rowOut returns the out-vector visible to worker w for token t.
func (e *engine) rowOut(w *worker, t int32) []float32 {
	if hi := e.hotIdx[t]; hi >= 0 {
		return w.hotOut[hi]
	}
	return e.model.Out.Row(t)
}
