package chaos

import (
	"reflect"
	"testing"
)

// The builtin suite must pass wholesale; in -short mode (the CI chaos
// smoke under -race) only the acceptance scenario runs — crash 2 of 4
// workers mid-run, both recovered, nothing dropped, exact replay.
// Scenarios run sequentially on purpose: failure detection is
// wall-clock-based, and saturating the host's cores would manufacture
// false-positive deaths the scenarios do not expect.
func TestBuiltinScenarios(t *testing.T) {
	scs := Builtin()
	if testing.Short() {
		scs = scs[:1]
	}
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if t.Failed() {
				t.Logf("stats: %+v", res.Stats)
			}
		})
	}
}

// TestNetworkChaosSmoke runs in CI's chaos-smoke job beside the -short
// acceptance run: the TCP builtin scenarios — partition + slow link +
// drops, and severed connections healed by reconnect — over real loopback
// sockets under -race. It is the wire-level counterpart of the acceptance
// scenario.
func TestNetworkChaosSmoke(t *testing.T) {
	ran := 0
	for _, sc := range Builtin() {
		if sc.Transport != "tcp" {
			continue
		}
		if testing.Short() && sc.CheckResume {
			// The resume check triples the training volume; the two wire-
			// fault scenarios are the smoke's point.
			continue
		}
		ran++
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if sc.Faults.Wire.Severs != nil && res.Stats.Reconnects == 0 {
				t.Error("sever scenario recorded no reconnects")
			}
			if t.Failed() {
				t.Logf("stats: %+v", res.Stats)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no tcp scenarios in the builtin suite")
	}
}

// The acceptance scenario's specifics, asserted beyond the generic
// invariants: both crashed partitions recovered and are on the ledger.
func TestAcceptanceCrashTwoOfFour(t *testing.T) {
	res, err := Run(Builtin()[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("violations: %v", res.Violations)
	}
	st := res.Stats
	if len(st.DeadWorkers) != 2 || st.DeadWorkers[0] != 1 || st.DeadWorkers[1] != 2 {
		t.Fatalf("DeadWorkers = %v, want [1 2]", st.DeadWorkers)
	}
	if st.Restarts == 0 {
		t.Fatal("no restarts recorded")
	}
	if st.RecoveredPairs == 0 {
		t.Fatal("no recovered pairs recorded")
	}
}

// A random scenario is a pure function of its seed.
func TestRandomScenarioDerivation(t *testing.T) {
	a, b := RandomScenario(99), RandomScenario(99)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different scenarios:\n%+v\n%+v", a, b)
	}
	c := RandomScenario(100)
	if reflect.DeepEqual(a.Faults, c.Faults) && a.Workers == c.Workers {
		t.Fatalf("different seeds produced an identical schedule: %+v", a)
	}
	if len(a.Faults.Crashes) == 0 || len(a.Faults.Crashes) >= a.Workers {
		t.Fatalf("schedule must crash a non-empty strict subset: %+v", a)
	}
}

func TestRandomScenarioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("random scenario skipped in short mode")
	}
	res, err := Run(RandomScenario(1234))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("violations: %v (stats %+v)", res.Violations, res.Stats)
	}
}
