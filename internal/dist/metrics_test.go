package dist

import (
	"testing"

	"sisg/internal/metrics"
	"sisg/internal/sgns"
)

// The registry gauges are live views of the same worker counters Stats is
// built from, so after a faulty run every mirrored gauge must match Stats
// exactly. Here lost requests cost retries; no worker dies.
func TestRegistryMirrorsStats(t *testing.T) {
	ds, seqs, part := tinySetup(t, 4)
	opt := recoveryOptions(4)
	opt.Faults.DropFraction = 0.05
	reg := metrics.NewRegistry()
	opt.Metrics = reg

	var progressReports int
	opt.Progress = func(p sgns.Progress) { progressReports++ }

	_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGaugesMirrorStats(t, reg, st, 4)

	// Equality with an all-zero Stats would prove nothing.
	if st.Retries == 0 {
		t.Errorf("5%% request loss produced no retries; test is vacuous")
	}
	if st.RemoteCalls == 0 || st.RemoteBlocked <= 0 {
		t.Errorf("run made %d remote calls and blocked %v in them; test is vacuous", st.RemoteCalls, st.RemoteBlocked)
	}
	if st.Restarts != 0 || len(st.DeadWorkers) != 0 {
		t.Errorf("lost requests alone declared a worker dead: %+v", st)
	}

	// The final Done snapshot is delivered even when reporting is slower
	// than the run.
	if progressReports == 0 {
		t.Errorf("progress sink never called (final Done snapshot missing)")
	}
}

// The recovery counters mirror into the registry the same way: a crashed
// worker is declared dead and resurrected, its replacement retraining from
// the cursor, and lost requests on top still cost retries.
// train_dead_workers reads the cumulative ledger (a resurrected worker stays
// on it).
func TestRegistryMirrorsRecoveryStats(t *testing.T) {
	ds, seqs, part := tinySetup(t, 4)
	opt := recoveryOptions(4)
	opt.Faults.Crashes = []CrashSpec{{Worker: 1, AtPairs: 3000}}
	opt.Faults.DropFraction = 0.05
	reg := metrics.NewRegistry()
	opt.Metrics = reg

	_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGaugesMirrorStats(t, reg, st, 4)

	if st.Retries == 0 {
		t.Errorf("5%% request loss produced no retries; test is vacuous")
	}
	if st.Restarts != 1 || st.RecoveredPairs == 0 || len(st.DeadWorkers) != 1 {
		t.Errorf("recovery did not move the counters under test: %+v", st)
	}
}

// checkGaugesMirrorStats asserts every train_* gauge in reg equals the Stats
// field it mirrors, and train_workers the configured worker count.
func checkGaugesMirrorStats(t *testing.T, reg *metrics.Registry, st Stats, workers int) {
	t.Helper()
	read := func(name string) float64 {
		t.Helper()
		v, ok := reg.Value(name)
		if !ok {
			t.Fatalf("gauge %s not registered", name)
		}
		return v
	}
	for _, g := range []struct {
		name string
		want uint64
	}{
		{"train_pairs", st.Pairs},
		{"train_remote_calls", st.RemoteCalls},
		{"train_retries", st.Retries},
		{"train_dead_workers", uint64(len(st.DeadWorkers))},
		{"train_restarts", st.Restarts},
		{"train_takeovers", st.Takeovers},
		{"train_recovered_pairs", st.RecoveredPairs},
	} {
		if got := read(g.name); got != float64(g.want) {
			t.Errorf("%s = %v, want %d (Stats)", g.name, got, g.want)
		}
	}
	if got := read("train_remote_blocked_seconds"); got != st.RemoteBlocked.Seconds() {
		t.Errorf("train_remote_blocked_seconds = %v, want %v (Stats)", got, st.RemoteBlocked.Seconds())
	}
	if got := read("train_workers"); got != float64(workers) {
		t.Errorf("train_workers = %v, want %d", got, workers)
	}
}

// A nil registry keeps the run observer-free: no gauges, no progress
// goroutine, identical results.
func TestNilRegistryIsInert(t *testing.T) {
	ds, seqs, part := tinySetup(t, 2)
	opt := tinyOptions(2)
	if _, st, err := Train(ds.Dict.Dict, seqs, part, opt); err != nil || st.Pairs == 0 {
		t.Fatalf("plain run: %v, %d pairs", err, st.Pairs)
	}
}
