// Package chaos is a deterministic chaos harness for the distributed
// trainer: it composes seeded crash/stall schedules and wire faults
// (drops, delays, duplicates, severed connections, one-way partitions)
// into scenarios, runs them against a synthetic corpus — over in-process
// channels or real loopback TCP — and checks the self-healing invariants
// after every run: pair accounting, zero loss, finite
// embeddings, exact replay under one seed, and checkpoint/resume
// equivalence when the run is killed mid-chaos.
//
// Determinism is the design center, not an afterthought: every fault in a
// schedule triggers on a worker's own pair counter and every replacement
// incarnation re-seeds its RNG streams from (seed, partition,
// incarnation), so a scenario is a reproducible experiment, not a fuzz
// roll. The harness is driven from go test (chaos_test.go) and from the
// sisg-chaos command.
package chaos

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"sisg/internal/corpus"
	"sisg/internal/dist"
	"sisg/internal/graph"
	"sisg/internal/race"
	"sisg/internal/rng"
	"sisg/internal/sisg"
)

// Scenario is one seeded chaos experiment.
type Scenario struct {
	Name    string
	Seed    uint64 // training seed; also salts the corpus
	Workers int
	Epochs  int // 0 = 1

	// Transport selects the request mesh under test: "" or "chan" for the
	// in-process channels, "tcp" for real loopback sockets. The invariant
	// set is transport-independent; the tcp scenarios exist to prove it.
	Transport string

	// Failure schedule and the restart budget under test.
	Faults      dist.FaultPlan
	MaxRestarts int // dist semantics: 0 = default budget, negative = none

	// ExpectDead lists the partitions that must appear in
	// Stats.DeadWorkers (exactly — no more, no fewer). Nil skips the
	// check (stall scenarios, where detection is timing-dependent).
	ExpectDead []int

	// CheckDeterminism runs the scenario twice and requires the
	// deterministic stat subset to match. Only meaningful for crash-only
	// schedules: stalls and drops perturb timing-shaped paths.
	CheckDeterminism bool

	// CheckResume additionally kills the run at a mid-chaos checkpoint
	// barrier (dist.ErrHalted), resumes it from the snapshot, and requires
	// the resumed accounting to match the uninterrupted run.
	CheckResume bool

	// Sessions overrides the synthetic corpus size (0 = 900).
	Sessions int
}

// Result is one scenario's outcome: the uninterrupted run's stats plus
// every invariant violation found. An empty Violations slice means PASS.
type Result struct {
	Scenario   Scenario
	Stats      dist.Stats
	Violations []string
	Elapsed    time.Duration
}

func (r *Result) Passed() bool { return len(r.Violations) == 0 }

func (r *Result) fail(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// deterministic extracts the stat subset that must replay exactly under
// one seed: pair accounting (with the round trips the remote pairs took),
// per-worker loads, recovery attribution and the death ledger.
// Timing-shaped figures (Retries, BytesSent, HotSyncs, Elapsed) are
// excluded by design.
func deterministic(st dist.Stats) []uint64 {
	out := []uint64{st.Pairs, st.LocalPairs, st.RemotePairs, st.RemoteCalls,
		st.RecoveredPairs, st.Restarts, st.Takeovers}
	out = append(out, st.PairsPerWorker...)
	for _, d := range st.DeadWorkers {
		out = append(out, uint64(d))
	}
	return out
}

// Run executes the scenario and checks every applicable invariant. The
// returned error reports harness failures (corpus generation, an
// unexpected training error); invariant breaks go into Result.Violations.
func Run(sc Scenario) (*Result, error) {
	res := &Result{Scenario: sc}
	start := time.Now()
	defer func() { res.Elapsed = time.Since(start) }()

	ds, seqs, part, err := dataset(sc)
	if err != nil {
		return nil, err
	}

	opt := options(sc)
	m, st, err := dist.Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		return nil, fmt.Errorf("chaos %q: train: %w", sc.Name, err)
	}
	res.Stats = st
	checkInvariants(res, st)
	for _, v := range m.In.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			res.fail("non-finite value in trained embeddings")
			break
		}
	}

	if sc.CheckDeterminism {
		_, st2, err := dist.Train(ds.Dict.Dict, seqs, part, options(sc))
		if err != nil {
			return nil, fmt.Errorf("chaos %q: determinism re-run: %w", sc.Name, err)
		}
		compareDeterministic(res, "same-seed re-run", st, st2)
	}

	if sc.CheckResume {
		if err := checkResume(res, ds, seqs, part, sc, st); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkInvariants applies the unconditional checks to one run's stats.
func checkInvariants(res *Result, st dist.Stats) {
	sc := res.Scenario
	if st.Pairs != st.LocalPairs+st.RemotePairs {
		res.fail("pair accounting broken: %d local + %d remote != %d pairs",
			st.LocalPairs, st.RemotePairs, st.Pairs)
	}
	var sum uint64
	for _, p := range st.PairsPerWorker {
		sum += p
	}
	if sum != st.Pairs {
		res.fail("per-worker pairs sum %d != total %d", sum, st.Pairs)
	}
	if st.Pairs == 0 {
		res.fail("nothing trained")
	}
	if sc.ExpectDead != nil {
		if len(st.DeadWorkers) != len(sc.ExpectDead) {
			res.fail("DeadWorkers = %v, want %v", st.DeadWorkers, sc.ExpectDead)
		} else {
			for i, d := range sc.ExpectDead {
				if st.DeadWorkers[i] != d {
					res.fail("DeadWorkers = %v, want %v", st.DeadWorkers, sc.ExpectDead)
					break
				}
			}
		}
	}
}

func compareDeterministic(res *Result, what string, a, b dist.Stats) {
	da, db := deterministic(a), deterministic(b)
	if len(da) != len(db) {
		res.fail("%s: stat vector lengths differ (%d vs %d; dead %v vs %v)",
			what, len(da), len(db), a.DeadWorkers, b.DeadWorkers)
		return
	}
	for i := range da {
		if da[i] != db[i] {
			res.fail("%s: deterministic stat %d differs: %d vs %d", what, i, da[i], db[i])
			return
		}
	}
}

// checkResume kills the scenario at its second checkpoint barrier, resumes
// from the snapshot, and requires the resumed run's deterministic stats to
// match the uninterrupted run's — the mid-chaos resume-equivalence
// invariant (crash triggers, restart counts and the death ledger are all
// part of the snapshot, so a resumed run must not re-fire history).
func checkResume(res *Result, ds *corpus.Dataset, seqs [][]int32, part *graph.Partition, sc Scenario, base dist.Stats) error {
	dir, err := os.MkdirTemp("", "sisg-chaos-*")
	if err != nil {
		return fmt.Errorf("chaos %q: %w", sc.Name, err)
	}
	defer os.RemoveAll(dir)

	opt := options(sc)
	opt.CheckpointDir = dir
	opt.CheckpointEvery = 1   // snapshot at every barrier
	opt.HaltAfterBarriers = 1 // die right after the first mid-run snapshot
	_, _, err = dist.Train(ds.Dict.Dict, seqs, part, opt)
	if !errors.Is(err, dist.ErrHalted) {
		return fmt.Errorf("chaos %q: halted run: got %v, want ErrHalted", sc.Name, err)
	}

	opt.HaltAfterBarriers = 0
	opt.Resume = true
	_, st, err := dist.Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		return fmt.Errorf("chaos %q: resumed run: %w", sc.Name, err)
	}
	compareDeterministic(res, "mid-chaos resume", base, st)
	return nil
}

func dataset(sc Scenario) (*corpus.Dataset, [][]int32, *graph.Partition, error) {
	cfg := corpus.Tiny()
	cfg.Seed ^= sc.Seed // distinct seeds exercise distinct corpora
	cfg.NumSessions = 900
	if sc.Sessions > 0 {
		cfg.NumSessions = sc.Sessions
	}
	ds, err := corpus.Generate(cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("chaos %q: corpus: %w", sc.Name, err)
	}
	seqs := sisg.Enrich(ds.Dict, ds.Sessions, sisg.VariantSISGFUD)
	part, _, err := dist.PartitionForDataset(ds, ds.Sessions, sc.Workers)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("chaos %q: partition: %w", sc.Name, err)
	}
	return ds, seqs, part, nil
}

// options builds the dist configuration for a scenario: test-tight failure
// detection so a multi-death scenario still finishes in well under a
// second of wall clock, its deadlines stretched under the race detector
// (race.Deadline).
func options(sc Scenario) dist.Options {
	opt := dist.DefaultOptions(sc.Workers)
	opt.Options = sisg.TrainOptions(opt.Options, sisg.VariantSISGFUD, 3)
	opt.Epochs = 1
	if sc.Epochs > 0 {
		opt.Epochs = sc.Epochs
	}
	opt.HotTopK = 64
	opt.Seed = sc.Seed
	opt.Transport = sc.Transport
	opt.Faults = sc.Faults
	opt.MaxRestarts = sc.MaxRestarts
	opt.RemoteTimeout = race.Deadline(8 * time.Millisecond)
	opt.HeartbeatEvery = race.Deadline(2 * time.Millisecond)
	opt.DeadAfter = race.Deadline(40 * time.Millisecond)
	opt.RestartBackoff = 2 * time.Millisecond
	opt.RetryBackoff = time.Millisecond
	return opt
}

// Builtin returns the fixed scenario suite, including the acceptance
// scenario: crash 2 of 4 workers mid-run, both recovered, nothing
// dropped, exact replay under the seed.
func Builtin() []Scenario {
	return []Scenario{
		{
			Name: "crash-2-of-4-recovery", Seed: 1, Workers: 4,
			Faults: dist.FaultPlan{Crashes: []dist.CrashSpec{
				{Worker: 1, AtPairs: 3000},
				{Worker: 2, AtPairs: 5000},
			}},
			ExpectDead:       []int{1, 2},
			CheckDeterminism: true,
		},
		{
			Name: "restart-budget-to-takeover", Seed: 2, Workers: 4,
			MaxRestarts: 1,
			Faults: dist.FaultPlan{Crashes: []dist.CrashSpec{
				{Worker: 0, AtPairs: 2000, Times: 3},
			}},
			ExpectDead:       []int{0},
			CheckDeterminism: true,
		},
		{
			Name: "dead-at-birth-takeover", Seed: 3, Workers: 3,
			MaxRestarts: -1,
			Faults: dist.FaultPlan{Crashes: []dist.CrashSpec{
				{Worker: 2, AtStart: true},
			}},
			ExpectDead:       []int{2},
			CheckDeterminism: true,
		},
		{
			Name: "crash-plus-drops-recovery", Seed: 4, Workers: 4,
			// Small corpus and drop rate: every dropped request waits out a
			// full attempt deadline, so lossy scenarios pay real wall-clock
			// per remote pair.
			Sessions: 300,
			Faults: dist.FaultPlan{
				DropFraction: 0.05,
				Crashes:      []dist.CrashSpec{{Worker: 3, AtPairs: 1500}},
			},
			ExpectDead:       []int{3},
			CheckDeterminism: true, // drops cost retries, never accounting
		},
		{
			Name: "stall-storm-recovery", Seed: 5, Workers: 4,
			Faults: dist.FaultPlan{Stalls: []dist.StallSpec{
				{Worker: 1, AtPairs: 1000, For: 60 * time.Millisecond},
				{Worker: 2, AtPairs: 2000, For: 60 * time.Millisecond},
			}},
			// Detection of a stall is timing-dependent (it may resolve just
			// under the threshold), so neither the dead set nor exact replay
			// is asserted — the accounting invariants must hold regardless.
		},
		{
			// One crash under the generic invariants alone, no replay check.
			// The name is historical: this run recovers like every other.
			Name: "crash-no-recovery-baseline", Seed: 6, Workers: 4,
			Faults:     dist.FaultPlan{Crashes: []dist.CrashSpec{{Worker: 1, AtPairs: 3000}}},
			ExpectDead: []int{1},
		},
		{
			Name: "mid-chaos-resume", Seed: 7, Workers: 4,
			Faults: dist.FaultPlan{Crashes: []dist.CrashSpec{
				{Worker: 1, AtPairs: 2500},
			}},
			ExpectDead:  []int{1},
			CheckResume: true,
		},
		// The TCP scenarios re-prove the PR 3 invariants with requests on
		// real loopback sockets: crashes recover, severed connections heal
		// by reconnect without tripping the heartbeat monitor, one-way
		// partitions and slow links cost retries but never accounting, and
		// a mid-chaos snapshot resumes exactly.
		{
			Name: "tcp-crash-recovery", Seed: 8, Workers: 4, Transport: "tcp",
			Faults: dist.FaultPlan{Crashes: []dist.CrashSpec{
				{Worker: 1, AtPairs: 3000},
			}},
			ExpectDead:       []int{1},
			CheckDeterminism: true,
			CheckResume:      true,
		},
		{
			Name: "tcp-sever-reconnect", Seed: 9, Workers: 3, Transport: "tcp",
			Sessions: 300,
			Faults: dist.FaultPlan{Wire: dist.WireFaults{Severs: []dist.SeverSpec{
				{From: 0, To: 1, AtSends: 25},
				{From: 2, To: 1, AtSends: 40},
				{From: 1, To: 0, AtSends: 60},
			}}},
			// Reconnect must heal the links without a single death: an empty
			// (non-nil) ExpectDead asserts exactly that.
			ExpectDead:       []int{},
			CheckDeterminism: true,
		},
		{
			Name: "tcp-partition-slow-link-recovery", Seed: 10, Workers: 3, Transport: "tcp",
			Sessions: 300,
			Faults: dist.FaultPlan{
				DropFraction: 0.03,
				Wire: dist.WireFaults{
					DelayFraction: 0.05,
					Delay:         3 * time.Millisecond,
					Partitions: []dist.PartitionSpec{
						{From: 0, To: 2, AtSends: 30, ForSends: 20},
						{From: 2, To: 0, AtSends: 50, ForSends: 10},
					},
				},
			},
			ExpectDead:       []int{},
			CheckDeterminism: true, // wire faults cost retries, never accounting
		},
	}
}

// RandomScenario derives a seeded random crash schedule: 3-5 workers,
// crashes on a random strict subset of them (always leaving a survivor),
// each with a small random restart budget. The schedule is a pure function
// of the seed — rerunning the same seed reruns the same scenario — and is
// crash-only, so determinism checking stays sound.
func RandomScenario(seed uint64) Scenario {
	r := rng.New(seed ^ 0x6a09e667f3bcc908)
	workers := 3 + r.Intn(3)
	nCrash := 1 + r.Intn(workers-1)
	perm := r.Perm(workers)
	victims := append([]int(nil), perm[:nCrash]...)
	sortInts(victims)
	var crashes []dist.CrashSpec
	for _, v := range victims {
		crashes = append(crashes, dist.CrashSpec{
			Worker:  v,
			AtPairs: uint64(1000 + r.Intn(5000)),
			Times:   1 + r.Intn(3),
		})
	}
	return Scenario{
		Name:             fmt.Sprintf("random-%d", seed),
		Seed:             seed,
		Workers:          workers,
		MaxRestarts:      1 + r.Intn(2),
		Faults:           dist.FaultPlan{Crashes: crashes},
		ExpectDead:       victims,
		CheckDeterminism: true,
	}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
