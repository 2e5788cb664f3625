package dist

import (
	"testing"

	"sisg/internal/metrics"
	"sisg/internal/sgns"
)

// The registry gauges are live views of the same worker counters Stats is
// built from, so after a faulty run (timeouts → retries → degrades, a
// crashed worker → drops) every mirrored gauge must match Stats exactly.
func TestRegistryMirrorsStats(t *testing.T) {
	ds, seqs, part := tinySetup(t, 4)
	opt := faultOptions(4)
	opt.Epochs = 2
	opt.Faults.CrashWorker = 1
	opt.Faults.CrashAtPairs = 30000
	// The dead worker guarantees retries and degrades (every call to it
	// times out, is re-sent once, then degrades); a small drop rate adds
	// pre-crash retries without the whole run waiting out timeouts.
	opt.Faults.DropFraction = 0.05
	reg := metrics.NewRegistry()
	opt.Metrics = reg

	var progressReports int
	opt.Progress = func(p sgns.Progress) { progressReports++ }

	_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}

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
		{"train_degraded", st.Degraded},
		{"train_dropped_pairs", st.DroppedPairs},
		{"train_dead_workers", uint64(len(st.DeadWorkers))},
	} {
		if got := read(g.name); got != float64(g.want) {
			t.Errorf("%s = %v, want %d (Stats)", g.name, got, g.want)
		}
	}
	if got := read("train_remote_blocked_seconds"); got != st.RemoteBlocked.Seconds() {
		t.Errorf("train_remote_blocked_seconds = %v, want %v (Stats)", got, st.RemoteBlocked.Seconds())
	}
	if got := read("train_workers"); got != 4 {
		t.Errorf("train_workers = %v, want 4", got)
	}

	// The fault plan guarantees the interesting counters actually moved;
	// equality with an all-zero Stats would prove nothing.
	if st.Retries == 0 || st.Degraded == 0 {
		t.Errorf("fault plan produced no retries/degrades (%d/%d); test is vacuous", st.Retries, st.Degraded)
	}
	if st.RemoteCalls == 0 || st.RemoteBlocked <= 0 {
		t.Errorf("run made %d remote calls and blocked %v in them; test is vacuous", st.RemoteCalls, st.RemoteBlocked)
	}
	if len(st.DeadWorkers) != 1 {
		t.Errorf("DeadWorkers = %v, want exactly the crashed worker", st.DeadWorkers)
	}
	if st.DroppedPairs == 0 {
		t.Errorf("crashed worker dropped no pairs")
	}

	// The final Done snapshot is delivered even when reporting is slower
	// than the run.
	if progressReports == 0 {
		t.Errorf("progress sink never called (final Done snapshot missing)")
	}
}

// The recovery counters mirror into the registry the same way: after a
// crash-and-resurrect run the train_restarts / train_takeovers /
// train_recovered_pairs gauges must match Stats, and train_dead_workers
// reads the cumulative ledger (a resurrected worker stays on it).
func TestRegistryMirrorsRecoveryStats(t *testing.T) {
	ds, seqs, part := tinySetup(t, 4)
	opt := recoveryOptions(4)
	opt.Faults.CrashWorker = 1
	opt.Faults.CrashAtPairs = 3000
	reg := metrics.NewRegistry()
	opt.Metrics = reg

	_, st, err := Train(ds.Dict.Dict, seqs, part, opt)
	if err != nil {
		t.Fatal(err)
	}
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
		{"train_restarts", st.Restarts},
		{"train_takeovers", st.Takeovers},
		{"train_recovered_pairs", st.RecoveredPairs},
		{"train_dead_workers", uint64(len(st.DeadWorkers))},
		{"train_dropped_pairs", 0},
		{"train_degraded", 0},
	} {
		if got := read(g.name); got != float64(g.want) {
			t.Errorf("%s = %v, want %d (Stats)", g.name, got, g.want)
		}
	}
	if st.Restarts != 1 || st.RecoveredPairs == 0 || len(st.DeadWorkers) != 1 {
		t.Errorf("recovery did not move the counters under test: %+v", st)
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
