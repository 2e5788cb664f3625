package dist

import (
	"testing"
	"time"

	"sisg/internal/race"
)

// recoveryOptions are faultOptions with the supervisor enabled and
// detection/backoff timings sized for tests. DeadAfter is kept a
// comfortable multiple of every bounded wait in the system (attempt
// deadline, retry backoff ceiling) so only genuinely-dead workers are ever
// flagged — a false positive would make the pair accounting
// timing-dependent and the determinism assertions flaky. The deadlines
// stretch under the race detector (race.Deadline).
func recoveryOptions(workers int) Options {
	opt := tinyOptions(workers)
	opt.Recovery = true
	opt.RemoteTimeout = race.Deadline(8 * time.Millisecond)
	opt.RemoteRetries = 1
	opt.HeartbeatEvery = race.Deadline(2 * time.Millisecond)
	opt.DeadAfter = race.Deadline(40 * time.Millisecond)
	opt.RestartBackoff = 2 * time.Millisecond
	opt.RetryBackoff = time.Millisecond
	return opt
}

// deterministicStats is the subset of Stats that must replay exactly under
// one seed — pair accounting (with the round trips the remote pairs took:
// fixed by the scan and the batch cap) and recovery attribution. Timing-shaped
// figures (Retries, BytesSent, HotSyncs, Elapsed) are excluded by design.
func deterministicStats(t *testing.T, st Stats) []uint64 {
	t.Helper()
	out := []uint64{st.Pairs, st.LocalPairs, st.RemotePairs, st.RemoteCalls, st.Degraded,
		st.DroppedPairs, st.RecoveredPairs, st.Restarts, st.Takeovers}
	out = append(out, st.PairsPerWorker...)
	for _, d := range st.DeadWorkers {
		out = append(out, uint64(d))
	}
	return out
}

func checkRecoveryInvariants(t *testing.T, st Stats) {
	t.Helper()
	if st.DroppedPairs != 0 {
		t.Fatalf("recovery dropped %d pairs; recovery must drop none", st.DroppedPairs)
	}
	if st.Degraded != 0 {
		t.Fatalf("recovery degraded %d pairs; recovery must degrade none", st.Degraded)
	}
	if st.Pairs != st.LocalPairs+st.RemotePairs+st.Degraded {
		t.Fatalf("pair accounting broken: %d local + %d remote + %d degraded != %d",
			st.LocalPairs, st.RemotePairs, st.Degraded, st.Pairs)
	}
}

// A crashed worker is resurrected from its cursor: the run completes with
// nothing dropped, nothing degraded, and the replacement's work attributed
// to RecoveredPairs.
func TestRecoveryResurrection(t *testing.T) {
	ds, seqs, part := tinySetup(t, 4)
	opt := recoveryOptions(4)
	opt.Faults.CrashWorker = 1
	opt.Faults.CrashAtPairs = 4000

	m, st, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveryInvariants(t, st)
	if st.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", st.Restarts)
	}
	if st.Takeovers != 0 {
		t.Fatalf("Takeovers = %d, want 0 (budget not exhausted)", st.Takeovers)
	}
	if st.RecoveredPairs == 0 {
		t.Fatal("replacement incarnation trained no pairs")
	}
	if len(st.DeadWorkers) != 1 || st.DeadWorkers[0] != 1 {
		t.Fatalf("DeadWorkers = %v, want [1] (the ledger outlives the resurrection)", st.DeadWorkers)
	}
	// The partition finished its scan: strictly more pairs than the crash
	// point (the replacement rescanned the interrupted sequence and went on).
	if st.PairsPerWorker[1] <= opt.Faults.CrashAtPairs {
		t.Fatalf("partition 1 trained %d pairs, want > %d", st.PairsPerWorker[1], opt.Faults.CrashAtPairs)
	}
	if st.Hosts != nil {
		t.Fatalf("Hosts = %v, want nil without a takeover", st.Hosts)
	}
	for _, v := range m.In.Data() {
		if v != v {
			t.Fatal("NaN in recovered model")
		}
	}
}

// A partition that keeps crashing burns its restart budget and is then
// adopted by a survivor: Restarts == MaxRestarts, one takeover, and the
// host map records the new placement.
func TestRecoveryBudgetExhaustionTakeover(t *testing.T) {
	ds, seqs, part := tinySetup(t, 4)
	opt := recoveryOptions(4)
	opt.MaxRestarts = 1
	opt.Faults.Crashes = []CrashSpec{{Worker: 2, AtPairs: 2000, Times: 3}}

	_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveryInvariants(t, st)
	if st.Restarts != 1 {
		t.Fatalf("Restarts = %d, want exactly the budget (1)", st.Restarts)
	}
	if st.Takeovers != 1 {
		t.Fatalf("Takeovers = %d, want 1", st.Takeovers)
	}
	if st.Hosts == nil || st.Hosts[2] == 2 {
		t.Fatalf("Hosts = %v, want partition 2 re-hosted elsewhere", st.Hosts)
	}
	// The adopting machine is not the faulty one: the partition completes
	// even though the crash spec had a third fire left in it.
	if st.PairsPerWorker[2] == 0 {
		t.Fatal("adopted partition trained nothing")
	}
	if len(st.DeadWorkers) != 1 || st.DeadWorkers[0] != 2 {
		t.Fatalf("DeadWorkers = %v, want [2]", st.DeadWorkers)
	}
}

// A worker that dies before training a single pair (dead at birth, no
// heartbeat ever) is detected purely by its silence and its partition is
// adopted straight away when the restart budget is zero.
func TestRecoveryNeverStartedWorkerTakeover(t *testing.T) {
	ds, seqs, part := tinySetup(t, 4)
	opt := recoveryOptions(4)
	opt.MaxRestarts = -1 // zero budget: first death goes straight to takeover
	opt.Faults.Crashes = []CrashSpec{{Worker: 3, AtStart: true}}

	_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkRecoveryInvariants(t, st)
	if st.Restarts != 0 {
		t.Fatalf("Restarts = %d, want 0", st.Restarts)
	}
	if st.Takeovers != 1 {
		t.Fatalf("Takeovers = %d, want 1", st.Takeovers)
	}
	if st.Hosts == nil || st.Hosts[3] == 3 {
		t.Fatalf("Hosts = %v, want partition 3 re-hosted elsewhere", st.Hosts)
	}
	if st.PairsPerWorker[3] == 0 {
		t.Fatal("never-started partition was not trained by its adopter")
	}
	// Everything the partition trained came from the replacement.
	if st.RecoveredPairs < st.PairsPerWorker[3] {
		t.Fatalf("RecoveredPairs %d < partition 3's %d pairs, all of which are replacement work",
			st.RecoveredPairs, st.PairsPerWorker[3])
	}
}

// Two runs under one seed, each crashing and resurrecting a worker, must
// agree on every deterministic stat: crash triggers fire on the worker's
// own pair counter, replacements resume from the durable cursor with
// RNG streams derived from (seed, partition, incarnation), and recovery
// never lets timing decide whether a pair is remote or degraded.
func TestRecoveryDeterministic(t *testing.T) {
	ds, seqs, part := tinySetup(t, 4)
	run := func() Stats {
		opt := recoveryOptions(4)
		opt.Faults.Crashes = []CrashSpec{
			{Worker: 1, AtPairs: 3000, Times: 1},
			{Worker: 2, AtPairs: 5000, Times: 1},
		}
		_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
		if err != nil {
			t.Fatal(err)
		}
		checkRecoveryInvariants(t, st)
		return st
	}
	a, b := run(), run()
	sa, sb := deterministicStats(t, a), deterministicStats(t, b)
	if len(sa) != len(sb) {
		t.Fatalf("stat vector lengths differ: %d vs %d (dead workers %v vs %v)",
			len(sa), len(sb), a.DeadWorkers, b.DeadWorkers)
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("deterministic stat %d differs between same-seed runs: %d vs %d\nrun A: %+v\nrun B: %+v",
				i, sa[i], sb[i], a, b)
		}
	}
	if a.Restarts != 2 {
		t.Fatalf("Restarts = %d, want 2 (one per crashed worker)", a.Restarts)
	}
}
