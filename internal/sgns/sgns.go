// Package sgns implements Skip-Gram with Negative Sampling — the word2vec
// core (§II-A of the paper) that every SISG variant, and the EGES baseline's
// random-walk stage, trains with.
//
// The trainer is deliberately faithful to the original word2vec recipe the
// paper builds on: per-position randomly reduced windows, Mikolov
// subsampling of frequent tokens, unigram^α negative sampling, linear
// learning-rate decay, and lock-free Hogwild parallelism across sequence
// shards. Two paper-specific extensions are threaded through:
//
//   - Directed windows (§II-C): when Options.Directed is set, skip-grams are
//     sampled only from the RIGHT context window, preserving the click
//     order; the matching serving-time change (scoring in·out) lives in
//     internal/emb and internal/knn.
//   - Aggressive SI subsampling (§III-A): non-item tokens can be subsampled
//     harder than items via Options.SIBoost.
package sgns

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sisg/internal/alias"
	"sisg/internal/cacheline"
	"sisg/internal/checkpoint"
	"sisg/internal/emb"
	"sisg/internal/rng"
	"sisg/internal/vecmath"
	"sisg/internal/vocab"
)

// Options configures a training run. The zero value is not valid; start
// from Defaults.
type Options struct {
	Dim        int     // embedding dimension (paper: 128; experiments here: 32)
	Window     int     // maximum context window, in enriched-token units
	Negatives  int     // negatives per positive pair (paper production: 20)
	Epochs     int     // full passes over the corpus (paper: 2)
	LR         float32 // initial learning rate
	MinLRFrac  float32 // final LR as a fraction of LR (word2vec: 1e-4)
	SubsampleT float64 // subsampling threshold t; 0 disables
	SIBoost    float64 // multiplier on keep-prob of non-item tokens (≤1 = more aggressive)
	NoiseAlpha float64 // unigram exponent for negative sampling (paper: 0.75)
	// Stride makes the randomly reduced window a multiple of a token
	// stride. SI-enriched sequences place 1+NumSIColumns tokens per item;
	// reducing the window below that stride would starve item→item pairs,
	// so SISG sets Stride to the per-item token count ("we can adjust the
	// window size, such that all possible pairs per sequence are sampled",
	// §III-C). 0 or 1 means plain word2vec reduction.
	Stride   int
	Directed bool // sample right context window only (§II-C)
	Workers  int  // Hogwild shards; 0 = GOMAXPROCS
	Seed     uint64

	// Checkpointing (fault tolerance). When CheckpointDir is non-empty and
	// CheckpointEvery > 0, the trainer periodically snapshots the model,
	// per-shard RNG states and progress counters via internal/checkpoint:
	// training proceeds in sequence blocks with a barrier between them, and
	// a snapshot is cut at the first barrier after CheckpointEvery pairs
	// since the previous one (plus a final snapshot at completion). Resume
	// continues from the snapshot in CheckpointDir if one exists (and
	// starts fresh if not); a snapshot written under different
	// hyper-parameters is refused. The zero values disable checkpointing
	// and the trainer runs barrier-free, exactly as before.
	CheckpointDir   string
	CheckpointEvery uint64
	Resume          bool

	// Progress, when non-nil, receives live training snapshots (pairs/sec,
	// tokens/sec, current LR, ETA) every ProgressEvery (default 2s) from a
	// dedicated reporter goroutine, plus a final Done snapshot. Nil keeps
	// the trainer silent and reporter-free, exactly as before.
	Progress      ProgressFunc
	ProgressEvery time.Duration
}

// Defaults returns the option set used by the offline experiments.
func Defaults() Options {
	return Options{
		Dim:        32,
		Window:     5,
		Negatives:  5,
		Epochs:     2,
		LR:         0.025,
		MinLRFrac:  1e-4,
		SubsampleT: 1e-3,
		SIBoost:    0.5,
		NoiseAlpha: 0.75,
		Workers:    0,
		Seed:       1,
	}
}

// Fingerprint hashes the hyper-parameters that define a training run, for
// checkpoint compatibility checks: resuming under a different configuration
// would silently train a different model, so snapshots carry this hash and
// loads compare it. Checkpoint-control fields (dir, cadence, the Resume
// flag itself) are excluded — moving the checkpoint directory or changing
// the cadence must not invalidate a snapshot. The pair-update kernel's
// version is part of the identity: a snapshot written under different
// arithmetic cannot be replayed exactly. Callers append any extra
// run-identity values (vocabulary size, corpus size, worker count).
func (o Options) Fingerprint(extra ...interface{}) uint64 {
	c := o
	c.CheckpointDir, c.CheckpointEvery, c.Resume = "", 0, false
	// Observability knobs are not run identity either — and a func value
	// would stringify as an address, making the hash nondeterministic.
	c.Progress, c.ProgressEvery = nil, 0
	vs := append([]interface{}{fmt.Sprintf("%+v", c), vecmath.KernelVersion}, extra...)
	return checkpoint.HashOptions(vs...)
}

// Validate reports the first invalid option.
func (o *Options) Validate() error {
	switch {
	case o.Dim <= 0:
		return errors.New("sgns: Dim must be positive")
	case o.Window <= 0:
		return errors.New("sgns: Window must be positive")
	case o.Negatives < 0:
		return errors.New("sgns: Negatives must be non-negative")
	case o.Epochs <= 0:
		return errors.New("sgns: Epochs must be positive")
	case o.LR <= 0:
		return errors.New("sgns: LR must be positive")
	case o.SIBoost < 0 || o.SIBoost > 1:
		return errors.New("sgns: SIBoost out of [0,1]")
	case o.NoiseAlpha <= 0:
		return errors.New("sgns: NoiseAlpha must be positive")
	}
	return nil
}

// Stats reports what a training run did.
type Stats struct {
	Pairs       uint64        // positive pairs trained
	Updates     uint64        // pairs × (1+negatives)
	Tokens      uint64        // tokens consumed after subsampling
	Elapsed     time.Duration // wall time of the training phase
	FinalLR     float32
	WorkersUsed int
	// Busy is each worker's wall-clock spent training its shard, one entry
	// per worker; the rest of Elapsed it waited at a block's barrier for
	// the slowest shard. Timing, like Elapsed.
	Busy []time.Duration
}

// TokensPerSec returns throughput in consumed tokens per second.
func (s Stats) TokensPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Tokens) / s.Elapsed.Seconds()
}

// IdleShare is the mean share of the run a worker spent idle at a barrier,
// waiting for the other shards to finish the block — the static
// i ≡ shard (mod W) sharding's load imbalance (dist's counterpart is
// Stats.BlockedShare).
func (s Stats) IdleShare() float64 {
	if s.Elapsed <= 0 || len(s.Busy) == 0 {
		return 0
	}
	var busy time.Duration
	for _, b := range s.Busy {
		busy += b
	}
	return 1 - float64(busy)/float64(s.Elapsed*time.Duration(len(s.Busy)))
}

// Train learns a model over the given token-ID sequences. Sequences must
// index into dict. The returned model has one row per dictionary token.
func Train(dict *vocab.Dict, seqs [][]int32, opt Options) (*emb.Model, Stats, error) {
	if err := opt.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if dict.Len() == 0 {
		return nil, Stats{}, errors.New("sgns: empty vocabulary")
	}
	model := emb.NewModel(dict.Len(), opt.Dim, rng.New(opt.Seed))
	st, err := trainInto(model, dict, seqs, opt)
	return model, st, err
}

// Resume continues training an EXISTING model on new sequences — the
// warm-start path behind the paper's daily-update requirement ("all
// (possibly billions) embeddings may be computed on a daily basis"):
// yesterday's model plus today's sessions converges in a fraction of a
// cold start's epochs. Callers typically lower opt.LR for the incremental
// pass. The model is updated in place.
func Resume(model *emb.Model, dict *vocab.Dict, seqs [][]int32, opt Options) (Stats, error) {
	if err := opt.Validate(); err != nil {
		return Stats{}, err
	}
	if model == nil {
		return Stats{}, errors.New("sgns: nil model")
	}
	if model.Vocab() != dict.Len() {
		return Stats{}, fmt.Errorf("sgns: model has %d rows, dictionary %d tokens", model.Vocab(), dict.Len())
	}
	if model.Dim() != opt.Dim {
		return Stats{}, fmt.Errorf("sgns: model dim %d, options dim %d", model.Dim(), opt.Dim)
	}
	return trainInto(model, dict, seqs, opt)
}

// trainInto runs the training loop against an existing model.
func trainInto(model *emb.Model, dict *vocab.Dict, seqs [][]int32, opt Options) (Stats, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(seqs) && len(seqs) > 0 {
		workers = len(seqs)
	}
	if workers < 1 {
		workers = 1
	}

	master := rng.New(opt.Seed ^ 0x5e55e)

	// Count token frequencies over the sequences actually being trained on.
	// The dictionary's counts reflect the fully enriched corpus; a variant
	// that trains on item-only sequences must draw negatives from (and
	// subsample by) the distribution of ITS corpus, exactly as word2vec
	// builds its vocabulary from its input — otherwise most negative
	// samples are tokens the corpus never contains and output vectors see
	// no real negative pressure.
	counts := make([]uint64, dict.Len())
	var corpusTokens uint64
	maxLen := 0
	for _, s := range seqs {
		for _, t := range s {
			counts[t]++
		}
		corpusTokens += uint64(len(s))
		maxLen = max(maxLen, len(s))
	}

	noise, err := alias.New(NoiseWeights(counts, opt.NoiseAlpha))
	if err != nil {
		return Stats{}, fmt.Errorf("sgns: noise distribution: %w", err)
	}
	var keep []float32
	if opt.SubsampleT > 0 {
		keep = KeepProbs(dict, counts, corpusTokens, opt.SubsampleT, opt.SIBoost)
	}

	// Linear LR decay over the estimated total number of consumed tokens.
	totalTokens := corpusTokens * uint64(opt.Epochs)
	if totalTokens == 0 {
		totalTokens = 1
	}

	var (
		doneTokens atomic.Uint64
		pairs      atomic.Uint64
		updates    atomic.Uint64
	)

	// Persistent per-shard state: each shard keeps one RNG stream across
	// every epoch and block, so splitting the run into blocks (for
	// checkpoint barriers) leaves the per-shard operation sequence — and
	// therefore the Stats trajectory — bit-identical to a barrier-free run.
	states := make([]*workerState, workers)
	for w := range states {
		states[w] = newWorkerState(model, noise, keep, &opt, master.Split(), maxLen)
	}

	// Without checkpointing each epoch is a single block and the loop
	// below degenerates to the classic barrier-free Hogwild schedule.
	ckptOn := opt.CheckpointDir != "" && opt.CheckpointEvery > 0
	blockSize := len(seqs)
	if ckptOn && blockSize > CheckpointBlockSeqs {
		blockSize = CheckpointBlockSeqs
	}
	if blockSize < 1 {
		blockSize = 1
	}
	numBlocks := (len(seqs) + blockSize - 1) / blockSize

	fp := opt.Fingerprint(dict.Len(), len(seqs), workers)
	startEpoch, startBlock := 0, 0
	var lastCkptPairs uint64
	if opt.Resume && opt.CheckpointDir != "" && checkpoint.Exists(opt.CheckpointDir) {
		snap, err := checkpoint.Load(opt.CheckpointDir)
		if err != nil {
			return Stats{}, fmt.Errorf("sgns: resume: %w", err)
		}
		if err := snap.CheckOptions(fp); err != nil {
			return Stats{}, fmt.Errorf("sgns: resume: %w", err)
		}
		if len(snap.RNGs) != workers {
			return Stats{}, fmt.Errorf("sgns: resume: snapshot has %d shards, run has %d (set Workers explicitly)", len(snap.RNGs), workers)
		}
		if snap.Model.Vocab() != model.Vocab() || snap.Model.Dim() != model.Dim() {
			return Stats{}, fmt.Errorf("sgns: resume: snapshot model %d×%d, run %d×%d",
				snap.Model.Vocab(), snap.Model.Dim(), model.Vocab(), model.Dim())
		}
		if len(snap.Counters) != 3 {
			return Stats{}, fmt.Errorf("sgns: resume: snapshot has %d counters, want 3", len(snap.Counters))
		}
		copy(model.In.Data(), snap.Model.In.Data())
		copy(model.Out.Data(), snap.Model.Out.Data())
		for w := range states {
			states[w].r.SetState(snap.RNGs[w])
		}
		pairs.Store(snap.Counters[0])
		updates.Store(snap.Counters[1])
		doneTokens.Store(snap.Counters[2])
		startEpoch, startBlock = snap.Epoch, snap.Block
		lastCkptPairs = snap.Counters[0]
	}

	start := time.Now()
	var curEpoch atomic.Int32
	curEpoch.Store(int32(startEpoch))
	if opt.Progress != nil {
		stop := StartProgress(opt.Progress, opt.ProgressEvery, opt.Epochs, totalTokens,
			func() (int, uint64, uint64, float32) {
				d := doneTokens.Load()
				return int(curEpoch.Load()), pairs.Load(), d, DecayLR(opt.LR, opt.MinLRFrac, d, totalTokens)
			})
		defer stop() // emits the final Done snapshot, on error paths too
	}
	for epoch := startEpoch; epoch < opt.Epochs; epoch++ {
		curEpoch.Store(int32(epoch))
		b0 := 0
		if epoch == startEpoch {
			b0 = startBlock
		}
		for b := b0; b < numBlocks; b++ {
			lo := b * blockSize
			hi := lo + blockSize
			if hi > len(seqs) {
				hi = len(seqs)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(shard int, ws *workerState) {
					defer wg.Done()
					t0 := time.Now()
					defer func() { ws.busy += time.Since(t0) }()
					// The shard processes exactly the block's indexes that
					// are ≡ shard (mod workers): concatenated over blocks
					// this is the same per-shard order as the unblocked
					// `for i := shard; i < len(seqs); i += workers` loop.
					first := lo + (shard-lo%workers+workers)%workers
					// Shard tallies flush into the shared counters per
					// sequence (not per block) so the progress reporter sees
					// pairs move continuously; two uncontended atomic adds
					// against hundreds of pair updates is noise.
					for i := first; i < hi; i += workers {
						ws.trainSequence(seqs[i], &doneTokens, totalTokens)
						pairs.Add(ws.pairs)
						updates.Add(ws.pairs * uint64(1+opt.Negatives))
						ws.pairs = 0
					}
				}(w, states[w])
			}
			wg.Wait()

			if ckptOn {
				nextE, nextB := epoch, b+1
				if nextB == numBlocks {
					nextE, nextB = epoch+1, 0
				}
				finished := nextE >= opt.Epochs
				if finished || pairs.Load()-lastCkptPairs >= opt.CheckpointEvery {
					if err := saveCheckpoint(opt.CheckpointDir, fp, nextE, nextB, states, model, &pairs, &updates, &doneTokens); err != nil {
						return Stats{}, fmt.Errorf("sgns: checkpoint: %w", err)
					}
					lastCkptPairs = pairs.Load()
					if checkpointCrashHook != nil && checkpointCrashHook(nextE, nextB) {
						return Stats{}, errCrashHook
					}
				}
			}
		}
	}

	st := Stats{
		Pairs:       pairs.Load(),
		Updates:     updates.Load(),
		Tokens:      doneTokens.Load(),
		Elapsed:     time.Since(start),
		WorkersUsed: workers,
		Busy:        make([]time.Duration, workers),
	}
	for w, ws := range states {
		st.Busy[w] = ws.busy
	}
	st.FinalLR = DecayLR(opt.LR, opt.MinLRFrac, st.Tokens, totalTokens)
	return st, nil
}

// checkpointCrashHook, when set (tests only), is called after each
// snapshot write with the snapshot's resume position; returning true kills
// the run at exactly that point, simulating a process crash whose last
// visible effect is the snapshot.
var checkpointCrashHook func(epoch, block int) bool

var errCrashHook = errors.New("sgns: crashed by test hook")

// CheckpointBlockSeqs is the sequence-block granularity used when
// checkpointing is enabled, here and in dist: a snapshot can be cut only at
// a block barrier, so CheckpointEvery is a lower bound on the pair gap
// between snapshots, not an exact cadence.
const CheckpointBlockSeqs = 512

// saveCheckpoint cuts a snapshot at a block barrier (no shard goroutines
// running, so the model and counters are a consistent view).
func saveCheckpoint(dir string, fp uint64, epoch, block int, states []*workerState, model *emb.Model, pairs, updates, doneTokens *atomic.Uint64) error {
	rngs := make([][4]uint64, len(states))
	for i, ws := range states {
		rngs[i] = ws.r.State()
	}
	return checkpoint.Save(dir, &checkpoint.Snapshot{
		OptionsHash: fp,
		Epoch:       epoch,
		Block:       block,
		Counters:    []uint64{pairs.Load(), updates.Load(), doneTokens.Load()},
		RNGs:        rngs,
		Model:       model,
	})
}

// workerState is one Hogwild shard's scratch space.
type workerState struct {
	model *emb.Model
	noise *alias.Table
	keep  []float32
	opt   *Options
	walk  Walk
	r     rng.RNG
	grad  []float32
	kept  []int32
	negs  []int32 // the current pair's negative samples
	pairs uint64  // this sequence's, flushed by the caller
	lr    float32
	busy  time.Duration
}

// newWorkerState allocates one shard's state as one padded block
// (cacheline.Alloc): the struct with its RNG, the negative draws, the kept
// tokens — room for maxLen, so the subsampling pass never reallocates —
// and the gradient. Every pair writes the RNG, negs and grad; in blocks of
// their own no two shards write one cache line.
func newWorkerState(model *emb.Model, noise *alias.Table, keep []float32, opt *Options, r *rng.RNG, maxLen int) *workerState {
	n := opt.Negatives
	ws, ints, floats := cacheline.Alloc[workerState](n+maxLen, opt.Dim)
	*ws = workerState{
		model: model, noise: noise, keep: keep, opt: opt, r: *r,
		walk: NewWalk(opt.Window, opt.Stride, opt.Directed),
		grad: floats,
		kept: ints[n:n],
		negs: ints[:n:n],
	}
	return ws
}

// trainSequence walks one sequence, training every pair into the shared
// model without locks. Gradients w.r.t. the input vector are accumulated
// per pair and applied once, per the original word2vec.
func (ws *workerState) trainSequence(seq []int32, doneTokens *atomic.Uint64, totalTokens uint64) {
	kept := Subsample(ws.kept, seq, ws.keep, &ws.r)
	ws.lr = DecayLR(ws.opt.LR, ws.opt.MinLRFrac, doneTokens.Add(uint64(len(seq))), totalTokens)
	m := ws.model
	for i := range kept {
		lo, hi := ws.walk.Span(&ws.r, i, len(kept))
		v := m.In.Row(kept[i])
		for j := lo; j <= hi; j++ {
			if j != i {
				TrainPair(m.Out, ws.noise, &ws.r, ws.negs, v, ws.grad, kept[j], ws.lr)
				vecmath.Add(ws.grad, v)
			}
		}
		ws.pairs += uint64(hi - lo)
	}
}
