// Command sisg-chaos drives the deterministic chaos harness against the
// distributed trainer: seeded crash/stall/drop schedules with the
// self-healing invariants checked after every scenario (pair accounting,
// zero loss, finite embeddings, exact same-seed replay,
// mid-chaos checkpoint/resume equivalence).
//
// Run the builtin suite:
//
//	sisg-chaos
//
// Add seeded random crash schedules on top (each is a pure function of its
// seed, so a failing seed is a reproducible bug report):
//
//	sisg-chaos -random 8 -seed 42
//
// Exit status is non-zero if any scenario fails.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"sisg/internal/chaos"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sisg-chaos: ")
	var (
		builtin   = flag.Bool("builtin", true, "run the builtin scenario suite")
		random    = flag.Int("random", 0, "additionally run N seeded random crash scenarios")
		seed      = flag.Uint64("seed", 1, "base seed for -random scenarios (scenario i uses seed+i)")
		match     = flag.String("run", "", "only run scenarios whose name contains this substring")
		transport = flag.String("transport", "", "override every scenario's transport: chan or tcp (empty = scenario default)")
		verbose   = flag.Bool("v", false, "print per-scenario stats")
	)
	flag.Parse()

	var scs []chaos.Scenario
	if *builtin {
		scs = append(scs, chaos.Builtin()...)
	}
	for i := 0; i < *random; i++ {
		scs = append(scs, chaos.RandomScenario(*seed+uint64(i)))
	}

	var failedNames []string
	ran := 0
	start := time.Now()
	for _, sc := range scs {
		if *match != "" && !strings.Contains(sc.Name, *match) {
			continue
		}
		ran++
		if *transport != "" {
			sc.Transport = *transport
		}
		res, err := chaos.Run(sc)
		if err != nil {
			log.Fatalf("%s: %v", sc.Name, err)
		}
		if res.Passed() {
			fmt.Printf("PASS %-28s (%v)\n", sc.Name, res.Elapsed.Round(time.Millisecond))
		} else {
			failedNames = append(failedNames, sc.Name)
			fmt.Printf("FAIL %-28s (%v)\n", sc.Name, res.Elapsed.Round(time.Millisecond))
			// One "scenario: violation" line per invariant break — the same
			// greppable shape as sisg-lint's "file:line:col: check: message"
			// diagnostics, so the lint and chaos CI jobs read alike.
			for _, v := range res.Violations {
				fmt.Printf("%s: %s\n", sc.Name, v)
			}
		}
		if *verbose || !res.Passed() {
			st := res.Stats
			fmt.Printf("     pairs=%d local=%d remote=%d calls=%d recovered=%d restarts=%d takeovers=%d dead=%v hosts=%v\n",
				st.Pairs, st.LocalPairs, st.RemotePairs, st.RemoteCalls,
				st.RecoveredPairs, st.Restarts, st.Takeovers, st.DeadWorkers, st.Hosts)
		}
	}
	fmt.Printf("%d scenarios, %d failed (%v)\n", ran, len(failedNames), time.Since(start).Round(time.Millisecond))
	if len(failedNames) > 0 {
		fmt.Printf("failing: %s\n", strings.Join(failedNames, ", "))
		os.Exit(1)
	}
}
