// Package dist implements the paper's distributed training mechanism
// (§III): Target Negative Sampling (TNS, Algorithm 1) with the two
// production extensions that make up Adapted TNS (ATNS):
//
//   - hot-token replication: the most frequent tokens (the shared set Q,
//     mostly SI values like gender or age) are kept on every worker and
//     their vectors are synchronized at regular intervals, and
//   - aggressive down-sampling of high-frequency tokens (inherited from the
//     sgns options).
//
// Workers are goroutines, each owning a partition of the embedding rows;
// the partition for items comes from HBGP (internal/graph) and SI/user-type
// tokens are assigned randomly (§III-C step 3). A training pair (v_i, v_j)
// is processed by the owner of v_i: if v_j is local (or replicated) the
// whole update is local, otherwise the worker ships v_i's input vector to
// v_j's owner, which runs the TNS function — positive update on out(v_j),
// negatives from ITS local noise distribution, returning the gradient for
// v_i (Algorithm 1, lines 12-21). Remote pairs travel a sequence at a
// time: one request per owner carrying every (v_i, its contexts there) of
// the sequence, one summed gradient per v_i back (DESIGN.md §5h).
//
// This is an in-process simulation of the cluster: goroutines stand in for
// machines and Go channels for the network, with every remote call and its
// payload bytes counted, so communication-cost claims (the whole point of
// ATNS + HBGP) are measured rather than assumed. Cluster wall-clock is
// derived from those measured counters by a fixed cost model (simElapsed) —
// the host may have fewer cores than simulated workers. See DESIGN.md §2 for
// the substitution argument.
package dist

import (
	"errors"
	"fmt"
	"time"

	"sisg/internal/corpus"
	"sisg/internal/emb"
	"sisg/internal/graph"
	"sisg/internal/metrics"
	"sisg/internal/sgns"
	"sisg/internal/vocab"
)

// Options configures a distributed run. Embedded sgns.Options supply the
// model hyper-parameters (Dim, Window, Stride, Negatives, Epochs, LR,
// subsampling, Directed); Workers is the number of simulated machines.
type Options struct {
	sgns.Options

	// Hot-token replication (the ATNS "shared set Q"): Q is the HotTopK
	// most frequent tokens, and each worker synchronizes its replicas every
	// syncEvery processed pairs.
	HotReplication bool
	HotTopK        int

	// Transport selects how TNS requests move between workers: "chan"
	// (default; the in-process channel mesh) or "tcp" (real loopback
	// sockets, length-prefixed frames, persistent connections redialed by
	// the requester; each worker writes its own request and reply frames,
	// every write and dial bounded by RemoteTimeout). The training
	// protocol, failure policy and accounting are transport-independent;
	// see DESIGN.md §5h.
	Transport string

	// Faults injects failures into the run; the zero value injects none.
	// See FaultPlan.
	Faults FaultPlan

	// RemoteTimeout bounds the time one remote TNS attempt may spend
	// blocked: in delivering the request plus in waiting for its reply. The
	// requester scans its next sequence between the two, and that does not
	// count; a reply already delivered is always taken, however late the
	// requester asks. After it expires the requester re-sends (Stats.Retries)
	// until a reply comes or its own incarnation is fenced. Zero means the
	// 2s default.
	RemoteTimeout time.Duration

	// HeartbeatEvery is the health monitor's sampling interval (zero = 25ms
	// default); DeadAfter is how long a scanning worker's heartbeat counter
	// may sit still before the worker is declared dead (zero = 10s default;
	// it should comfortably exceed RemoteTimeout, since a worker blocked on
	// a remote call only beats once per attempt deadline).
	HeartbeatEvery time.Duration
	DeadAfter      time.Duration

	// Every run self-heals: a worker the monitor declares dead is fenced and
	// resurrected (respawned on its own partition from its last durable scan
	// cursor, re-seeded from a dedicated RNG stream) up to MaxRestarts
	// times, and after the budget is exhausted its partition is taken over
	// by a surviving worker (see Stats.Takeovers, Stats.Hosts). No pair is
	// lost to a death: remote TNS calls to a dead partition wait (with
	// jittered exponential backoff, still serving their own queue) until
	// the replacement serves them, so Pairs == LocalPairs + RemotePairs
	// always holds, and the final accounting is deterministic under a seed
	// even across crashes.
	//
	// MaxRestarts bounds resurrections per partition before takeover.
	// Zero means the default (2); negative means no resurrections — the
	// first death goes straight to takeover.
	MaxRestarts int
	// RestartBackoff is the base supervisor delay before a resurrection,
	// doubled per prior restart of that partition and jittered ±50%.
	// Zero means the 50ms default.
	RestartBackoff time.Duration
	// RetryBackoff is the base delay between remote-TNS re-attempts,
	// doubled per attempt (capped) and jittered, so survivors do not
	// hammer a struggling peer in lockstep. Zero means RemoteTimeout/8.
	RetryBackoff time.Duration

	// HaltAfterBarriers, when positive, stops a checkpointing run cleanly
	// after that many block barriers have been released, forcing a snapshot
	// at the halt point and returning ErrHalted. It simulates a process
	// kill mid-run with a resumable snapshot on disk — the chaos harness's
	// mid-chaos checkpoint/resume equivalence check is built on it.
	// Ignored unless checkpointing is configured.
	HaltAfterBarriers int

	// Metrics, when non-nil, mirrors the engine's live counters — pairs,
	// retries, dead workers, restarts, current LR —
	// into the registry as gauges, sampled at scrape time. The embedded
	// sgns.Options.Progress sink (if set) additionally receives periodic
	// Progress snapshots, exactly like the local trainer's. Both are
	// observers only: nil values leave the run bit-identical.
	Metrics *metrics.Registry
}

// FaultPlan injects reproducible failures into a run: worker crashes at
// exact pair counts, stalls, and random request loss. Crashes and stalls
// trigger on the worker's own deterministic pair counter, and drops are
// drawn from a dedicated per-worker RNG derived from Options.Seed (the
// training streams are untouched), so a failing scenario replays under the
// same seed. The zero value injects nothing.
type FaultPlan struct {
	// DropFraction is the probability that a remote TNS request is lost in
	// transit (the requester waits out its deadline, then retries).
	DropFraction float64

	// Crashes and Stalls schedule the run's worker faults; the chaos
	// harness composes them freely.
	Crashes []CrashSpec
	Stalls  []StallSpec

	// Wire injects network-shaped faults below the request level: delays,
	// duplicates, severed connections and one-way partitions. Together
	// with DropFraction these are applied by a transport decorator, so
	// they work identically over channels and TCP (severs are a no-op on
	// channels — there is no connection to cut).
	Wire WireFaults
}

// WireFaults describes transport-level fault injection. Probabilistic
// decisions draw from a per-requester RNG stream derived from
// Options.Seed; positional triggers (severs, partitions) fire on exact
// per-link send counts. Either way a scenario replays under its seed.
type WireFaults struct {
	// DelayFraction is the probability a request is held for Delay before
	// it is forwarded — a slow link. The requester's deadline keeps
	// running while the request is held.
	DelayFraction float64
	Delay         time.Duration
	// DupFraction is the probability a request is delivered twice (a
	// retransmit duplicate). The extra delivery's reply is discarded; the
	// server simply serves one more request.
	DupFraction float64
	// Severs cut established connections: the From→To link is closed at
	// From's AtSends-th request on it. The link's next request redials —
	// the scenario every reconnect test is built on.
	Severs []SeverSpec
	// Partitions blackhole requests one-way: From's requests to To are
	// dropped for a window of send counts. Replies travel the opposite
	// direction and are unaffected, which is what makes it one-way.
	Partitions []PartitionSpec
}

// SeverSpec cuts the From→To connection at From's AtSends-th request on
// that link (1-based).
type SeverSpec struct {
	From, To int
	AtSends  uint64
}

// PartitionSpec drops From's requests to To starting at the AtSends-th
// (1-based) for ForSends consecutive sends (0 means exactly one).
type PartitionSpec struct {
	From, To int
	AtSends  uint64
	ForSends uint64
}

// active reports whether any wire fault is configured.
func (w WireFaults) active() bool {
	return w.DelayFraction > 0 || w.DupFraction > 0 ||
		len(w.Severs) > 0 || len(w.Partitions) > 0
}

// hasWireFaults reports whether the plan needs the fault-injecting
// transport decorator.
func (f FaultPlan) hasWireFaults() bool {
	return f.DropFraction > 0 || f.Wire.active()
}

// CrashSpec kills one worker — no more scanning, serving or heartbeats,
// and its un-synced hot deltas are lost — possibly repeatedly: a
// resurrected incarnation re-arms the trigger AtPairs pairs after its spawn
// point until the crash has fired Times times — the way to drive a
// partition through its whole restart budget into takeover. A taken-over
// partition never re-arms (the adopting machine is not the faulty one).
type CrashSpec struct {
	Worker int
	// AtPairs is the pair count the trigger fires at: absolute for the
	// first incarnation, relative to the spawn point for resurrected ones.
	// Ignored when AtStart is set.
	AtPairs uint64
	// Times caps how often the trigger fires; 0 means once.
	Times int
	// AtStart crashes the worker before it trains a single pair — the
	// never-started worker, detected purely by its missing heartbeat.
	AtStart bool
}

// StallSpec sleeps one worker for For (serving nothing) once its pair
// counter reaches AtPairs — a GC pause / noisy neighbor. Each spec fires
// once per run.
type StallSpec struct {
	Worker  int
	AtPairs uint64
	For     time.Duration
}

// validate reports the first invalid fault parameter for a run of the given
// worker count: a spec naming a worker the run does not have would silently
// inject nothing.
func (f FaultPlan) validate(workers int) error {
	bad := func(id int) bool { return id < 0 || id >= workers }
	if f.DropFraction < 0 || f.DropFraction >= 1 {
		return fmt.Errorf("dist: DropFraction %v out of [0,1)", f.DropFraction)
	}
	for i, c := range f.Crashes {
		if bad(c.Worker) {
			return fmt.Errorf("dist: Crashes[%d].Worker %d is not a worker of the run", i, c.Worker)
		}
		if !c.AtStart && c.AtPairs == 0 {
			return fmt.Errorf("dist: Crashes[%d] needs AtPairs > 0 or AtStart", i)
		}
		if c.Times < 0 {
			return fmt.Errorf("dist: Crashes[%d].Times %d negative", i, c.Times)
		}
	}
	for i, s := range f.Stalls {
		if bad(s.Worker) {
			return fmt.Errorf("dist: Stalls[%d].Worker %d is not a worker of the run", i, s.Worker)
		}
		if s.For <= 0 {
			return fmt.Errorf("dist: Stalls[%d].For must be positive", i)
		}
	}
	if f.Wire.DelayFraction < 0 || f.Wire.DelayFraction >= 1 {
		return fmt.Errorf("dist: Wire.DelayFraction %v out of [0,1)", f.Wire.DelayFraction)
	}
	if f.Wire.DelayFraction > 0 && f.Wire.Delay <= 0 {
		return errors.New("dist: Wire.DelayFraction needs a positive Wire.Delay")
	}
	if f.Wire.DupFraction < 0 || f.Wire.DupFraction > 1 {
		return fmt.Errorf("dist: Wire.DupFraction %v out of [0,1]", f.Wire.DupFraction)
	}
	for i, s := range f.Wire.Severs {
		if bad(s.From) || bad(s.To) {
			return fmt.Errorf("dist: Wire.Severs[%d] names a worker the run does not have", i)
		}
		if s.From == s.To {
			return fmt.Errorf("dist: Wire.Severs[%d] severs a worker from itself", i)
		}
		if s.AtSends == 0 {
			return fmt.Errorf("dist: Wire.Severs[%d].AtSends must be >= 1", i)
		}
	}
	for i, p := range f.Wire.Partitions {
		if bad(p.From) || bad(p.To) {
			return fmt.Errorf("dist: Wire.Partitions[%d] names a worker the run does not have", i)
		}
		if p.From == p.To {
			return fmt.Errorf("dist: Wire.Partitions[%d] partitions a worker from itself", i)
		}
		if p.AtSends == 0 {
			return fmt.Errorf("dist: Wire.Partitions[%d].AtSends must be >= 1", i)
		}
	}
	return nil
}

// crashFor returns one worker's crash schedule: the first matching entry.
func (f FaultPlan) crashFor(id int) *CrashSpec {
	for i := range f.Crashes {
		if f.Crashes[i].Worker == id {
			c := f.Crashes[i]
			if c.Times <= 0 {
				c.Times = 1
			}
			return &c
		}
	}
	return nil
}

// stallsFor returns one worker's stall schedule.
func (f FaultPlan) stallsFor(id int) []StallSpec {
	var out []StallSpec
	for _, s := range f.Stalls {
		if s.Worker == id {
			if s.AtPairs == 0 {
				s.AtPairs = 1
			}
			out = append(out, s)
		}
	}
	return out
}

// syncEvery is the number of processed pairs between a worker's hot replica
// synchronizations: the "regular intervals" of §III-A.
const syncEvery = 4096

// DefaultOptions returns the configuration used by the scalability benches.
func DefaultOptions(workers int) Options {
	o := Options{Options: sgns.Defaults()}
	o.Workers = workers
	o.HotReplication = true
	o.HotTopK = 512
	return o
}

// remoteTimeout returns the effective per-attempt deadline.
func (o *Options) remoteTimeout() time.Duration {
	if o.RemoteTimeout > 0 {
		return o.RemoteTimeout
	}
	return 2 * time.Second
}

// deadAfter returns the effective heartbeat-silence threshold.
func (o *Options) deadAfter() time.Duration {
	if o.DeadAfter > 0 {
		return o.DeadAfter
	}
	return 10 * time.Second
}

// heartbeatEvery returns the effective monitor sampling interval.
func (o *Options) heartbeatEvery() time.Duration {
	if o.HeartbeatEvery > 0 {
		return o.HeartbeatEvery
	}
	return 25 * time.Millisecond
}

// maxRestarts returns the effective per-partition resurrection budget.
func (o *Options) maxRestarts() int {
	switch {
	case o.MaxRestarts > 0:
		return o.MaxRestarts
	case o.MaxRestarts < 0:
		return 0
	}
	return 2
}

// restartBackoff returns the effective supervisor backoff base.
func (o *Options) restartBackoff() time.Duration {
	if o.RestartBackoff > 0 {
		return o.RestartBackoff
	}
	return 50 * time.Millisecond
}

// retryBackoff returns the effective remote-retry backoff base.
func (o *Options) retryBackoff() time.Duration {
	if o.RetryBackoff > 0 {
		return o.RetryBackoff
	}
	return o.remoteTimeout() / 8
}

// Stats aggregates what the cluster did.
type Stats struct {
	Workers     int
	Elapsed     time.Duration // real wall time of the in-process run
	SimElapsed  time.Duration // modeled cluster wall time (see engine.simElapsed)
	Tokens      uint64        // tokens consumed (across the cluster, post-subsampling)
	Pairs       uint64        // positive pairs trained
	LocalPairs  uint64        // pairs completed without a remote call
	RemotePairs uint64        // pairs completed via a remote TNS call
	RemoteCalls uint64        // successful remote round trips; each carries one owner's share of a sequence
	BytesSent   uint64        // simulated network payload (vectors + ids)
	HotSyncs    uint64        // hot replica synchronization rounds
	HotTokens   int           // |Q|
	// PairsPerWorker exposes the load balance achieved.
	PairsPerWorker []uint64
	// RemoteBlocked is the wall-clock the workers spent sending remote
	// requests and taking their replies (retries, backoff and the peer
	// requests served while waiting included; the scan between a send and
	// its reply excluded), summed over workers: divided by Workers ×
	// Elapsed it is the share of the run a worker was blocked on the wire.
	// Timing, like Elapsed — not part of the replay contract.
	RemoteBlocked time.Duration

	// Wire accounting, from the transport. For "chan" everything but
	// WireFrames is zero (nothing is serialized); for "tcp" these are
	// bytes and frames actually written to / read from loopback sockets,
	// length prefixes included, both directions of every link. Like
	// Retries, they are timing-shaped observability figures, not part of
	// the deterministic replay contract (a retried request is re-sent on
	// the wire but counted once by BytesSent's model).
	WireBytesSent uint64
	WireBytesRecv uint64
	WireFrames    uint64 // frames written (requests + replies)
	Reconnects    uint64 // severed links that were redialed successfully

	// Fault-tolerance accounting. Every dead partition is re-hosted and its
	// pairs retrained, so Pairs == LocalPairs + RemotePairs always holds.
	Retries uint64 // remote TNS re-sends after a deadline expired
	// Deprecated: always 0; every failure is recovered.
	Degraded uint64
	// Deprecated: always 0; every failure is recovered.
	DroppedPairs uint64
	DeadWorkers  []int // workers that ever crashed or were declared dead by the heartbeat monitor

	// Recovery accounting.
	Restarts       uint64 // resurrections: dead partitions respawned on their own machine
	Takeovers      uint64 // partitions adopted by a survivor after the restart budget ran out
	RecoveredPairs uint64 // pairs trained by replacement incarnations (resurrected or adopted)
	// Hosts maps partition -> machine hosting it at run end; nil when no
	// takeover happened (every partition still hosted by its own machine).
	Hosts []int32
}

// SimTokensPerSec is cluster throughput under the cost model — the y-axis
// of Figure 7(b).
func (s Stats) SimTokensPerSec() float64 {
	if s.SimElapsed <= 0 {
		return 0
	}
	return float64(s.Tokens) / s.SimElapsed.Seconds()
}

// RemoteFraction is the share of pairs that crossed workers — the quantity
// HBGP minimizes.
func (s Stats) RemoteFraction() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return float64(s.RemotePairs) / float64(s.Pairs)
}

// PairsPerCall is how many remote pairs one round trip carried on average.
func (s Stats) PairsPerCall() float64 {
	if s.RemoteCalls == 0 {
		return 0
	}
	return float64(s.RemotePairs) / float64(s.RemoteCalls)
}

// BlockedShare is the mean share of the run a worker spent waiting on
// remote calls — one trainer's wall-clock split into compute and wire.
func (s Stats) BlockedShare() float64 {
	if s.Elapsed <= 0 || s.Workers == 0 {
		return 0
	}
	return s.RemoteBlocked.Seconds() / (s.Elapsed.Seconds() * float64(s.Workers))
}

// Imbalance returns max/mean pairs per worker (1.0 = perfect).
func (s Stats) Imbalance() float64 {
	if len(s.PairsPerWorker) == 0 {
		return 0
	}
	var total, max uint64
	for _, p := range s.PairsPerWorker {
		total += p
		if p > max {
			max = p
		}
	}
	mean := float64(total) / float64(len(s.PairsPerWorker))
	if mean == 0 {
		return 0
	}
	return float64(max) / mean
}

// Train runs distributed SISG training over the enriched sequences. The
// item partition normally comes from graph.HBGP; non-item tokens are
// assigned to workers by a deterministic hash (§III-C step 3: "the target
// partitions for SI and user types are assigned randomly").
func Train(dict *vocab.Dict, seqs [][]int32, part *graph.Partition, opt Options) (*emb.Model, Stats, error) {
	if err := opt.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if opt.Workers <= 0 {
		return nil, Stats{}, errors.New("dist: Workers must be positive")
	}
	if part == nil {
		return nil, Stats{}, errors.New("dist: nil partition")
	}
	if part.W != opt.Workers {
		return nil, Stats{}, fmt.Errorf("dist: partition has %d workers, options say %d", part.W, opt.Workers)
	}
	if err := opt.Faults.validate(opt.Workers); err != nil {
		return nil, Stats{}, err
	}
	e, err := newEngine(dict, seqs, part, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	return e.run()
}

// PartitionForDataset builds the production partition for a dataset: HBGP
// over the item graph of the training sessions, β = 1.2 (§III-B: "in our
// production environment, β is set to 1.2 empirically").
func PartitionForDataset(ds *corpus.Dataset, train []corpus.Session, workers int) (*graph.Partition, *graph.Graph, error) {
	g := graph.FromSessions(train, ds.Dict.NumItems)
	leafOf := make([]int32, ds.Dict.NumItems)
	freq := make([]float64, ds.Dict.NumItems)
	for i := 0; i < ds.Dict.NumItems; i++ {
		leafOf[i] = ds.Catalog.LeafOf(int32(i))
		freq[i] = float64(ds.Dict.Count(int32(i)))
	}
	p, err := graph.HBGP(g, leafOf, ds.Catalog.NumLeaves(), freq, workers, 1.2)
	if err != nil {
		return nil, nil, err
	}
	return p, g, nil
}
