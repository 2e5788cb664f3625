// Command sisg-bench regenerates the paper's tables and figures on the
// synthetic workload. Run with -exp all (default) or a comma-separated list
// of experiment IDs: table1, table2, table3, fig3, fig4, fig5, fig6,
// fig7a, fig7b, asym, hbgp, atns.
//
// Output is a textual rendering of each table/figure series; see
// EXPERIMENTS.md for the committed reference run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sisg/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		quick = flag.Bool("quick", false, "use reduced corpus sizes (fast sanity run)")
		seed  = flag.Uint64("seed", 0, "override corpus seed (0 = config default)")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]
	run := func(id string) bool { return all || want[id] }

	ok := true
	for _, e := range experiments.Registry() {
		if !run(e.ID) {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.ID, e.Title)
		if err := e.Run(os.Stdout, os.Stderr, *quick, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "sisg-bench: %s: %v\n", e.ID, err)
			ok = false
		}
		fmt.Println()
	}
	if !ok {
		os.Exit(1)
	}
}
