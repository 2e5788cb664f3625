// Command benchmark is the repository's benchmark: it drives the real
// matching-stage stack — sgns.Train, dist.Train, sisg.Streamer and the HTTP
// server over loopback sockets, no RetrievalDelay — from one process,
// checks that the outputs are correct and prints every metric named in
// BENCHMARK.json. See README.md in this directory.
//
//	bash benchmark/run.sh --workload serve_scan --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh                  # every workload, timed
//	bash benchmark/run.sh --trace 1        # every workload, traced
//	bash benchmark/run.sh --repeat 10      # repeatability report
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

var bg = context.Background()

// setupRuns is setupRepeats, except in the self-tests.
var setupRuns = setupRepeats

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the harness reads: exactly these four keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is everything one run knows, written to benchmark/out/.
type report struct {
	Stamp      stamp                  `json:"stamp"`
	Workload   string                 `json:"workload"`
	Why        string                 `json:"why"`
	Trace      bool                   `json:"trace"`
	Result     result                 `json:"result"`
	EndToEnd   map[string]value       `json:"end_to_end"`
	Raw        map[string]value       `json:"as_measured"` // the end-to-end figures before conversion to the yardstick's reference speed
	NotGated   map[string]value       `json:"not_gated"`   // the issue's end-to-end metrics that do not repeat; per_layer in BENCHMARK.json
	PerLayer   map[string]value       `json:"per_layer,omitempty"`
	Detail     map[string]interface{} `json:"detail"`
	Violations []string               `json:"violations,omitempty"`
	Warnings   []string               `json:"warnings,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: each of them in turn, one process each)")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", runSeconds, "how long the timed stages run")
		trace   = flag.Int("trace", 0, "1: record spans around each layer and print the per-layer metrics instead")
		repeat  = flag.Int("repeat", 0, "run the full set this many times and report each end-to-end metric's repeatability")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	switch {
	case *repeat > 0:
		os.Exit(repeatMode(*repeat, *seed, *seconds))
	case *name == "":
		os.Exit(allWorkloads(*seed, *seconds, *trace))
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	rep, err := runWorkload(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fatal(err)
	}
	printReport(rep)
	if err := writeReport(rep); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload is one run: set up (several times, for a steady setup_s),
// the three stages, the audits and — traced — the rate ladder and the
// layer probes.
func runWorkload(wl workload, seed uint64, seconds time.Duration, traced bool) (*report, error) {
	rep := &report{Stamp: newStamp(seed), Workload: wl.name, Why: wl.why, Trace: traced, Detail: map[string]interface{}{}}
	rep.Warnings = rep.Stamp.warnings()
	var rec *recorder
	if traced {
		rec = newRecorder()
	}

	// Set-up, setupRepeats times; the last one is kept. Nothing is traced
	// here, so the recorder stays off until the stages start.
	var (
		e      *env
		setups []float64
	)
	yard := newYardstick()
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC() // the discarded set-up must not sit in the next one's peak
		}
		yard.tick()
		t0 := time.Now()
		var err error
		if e, err = setUp(wl, seed, rec); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		yard.tick()
	}
	defer e.close()
	e.yard = yard
	if rec != nil {
		rec.enabled.Store(true)
	}

	// The stages run in short cycles, so that every metric samples the
	// whole run and a slow spell of the machine lands in a few rounds of
	// each instead of in all rounds of one.
	o := &ops{}
	tr, st, sv := &trainResult{}, &streamResult{}, &serveResult{}
	cycles := int(seconds / cycleLength)
	if cycles < 1 {
		cycles = 1
	}
	per := seconds / time.Duration(cycles)
	for c := 0; c < cycles; c++ {
		if err := trainStage(e, scale(per, wl.train), o, tr); err != nil {
			return nil, err
		}
		streamStage(e, scale(per, wl.stream), o, st)
		serveStage(e, scale(per, wl.serve), o, sv)
	}
	if traced {
		sv.ladder = ladderStage(e, ladderRung, o)
	}
	// Quality, off the clock: a trainer that got faster by learning less
	// must show in the same run.
	hr10, hrTests := hitRate10(seed, o)
	var (
		streamAudit   audit
		streamWindows []window
	)
	for i := range st.reads {
		streamAudit.merge(st.reads[i].aud)
		streamWindows = append(streamWindows, windowsOf(&st.reads[i], streamWindow)...)
	}
	if a := streamAudit; a.ivfChecked >= minIVFAudited && a.ivfRecallSum/float64(a.ivfChecked) < minIVFRecall {
		o.violate("ivf recall@10 %.3f over %d answers is below %.2f", a.ivfRecallSum/float64(a.ivfChecked), a.ivfChecked, minIVFRecall)
	}

	// Latency is taken where the workload puts it: the serve stage's open
	// loop, or the reads that ran beside the ingest loop.
	reads := sv.open
	if wl.streamReads {
		reads = streamWindows
	}
	p90, samples := pooled(reads, 0.90)
	p99, _ := pooled(reads, 0.99)
	raw := map[string]value{
		"setup_s":               {median(setups), "s"},
		"p50_ms":                {percentile(column(reads, winP50), 0.25), "ms"},
		"sat_rps":               {topDecile(column(sv.closed, winRPS)), "req/s"},
		"ingest_sessions_per_s": {topDecile(st.ingestRate), "sessions/s"},
		"sgns_w1_pairs_per_s":   {topDecile(tr.rates["w1"]), "pairs/s"},
		"sgns_pairs_per_s":      {topDecile(tr.rates["w2"]), "pairs/s"},
		"dist_chan_pairs_per_s": {topDecile(tr.rates["chan"]), "pairs/s"},
		"dist_tcp_pairs_per_s":  {topDecile(tr.rates["tcp"]), "pairs/s"},
		"hr10":                  {hr10, "fraction"},
	}
	// The timed figures that follow the machine's speed are reported at the
	// yardstick's reference speed (see yard.go); as measured they stay in the
	// report.
	rep.Raw = raw
	rep.EndToEnd = map[string]value{}
	for name, v := range raw {
		rep.EndToEnd[name] = e.yard.atReferenceSpeed(name, v)
	}
	// Measured in every run and printed, but not gated: they do not repeat
	// within any bound on the reference box (README.md, "Not gated").
	rep.NotGated = map[string]value{
		"p90_ms":     {p90, "ms"},
		"p99_ms":     {p99, "ms"},
		"publish_ms": {median(st.publishMs), "ms"},
	}
	if traced {
		rep.NotGated["slo_rate_rps"] = value{sloRate(sv.ladder), "req/s"}
	}
	rep.Detail["yardstick"] = map[string]interface{}{
		"ticks": len(e.yard.speeds), "top_decile": e.yard.factor(false), "median": e.yard.factor(true), "speeds": e.yard.speeds,
	}
	rep.Detail["hr10_tests"] = hrTests
	lateness := median(column(reads, winLate))
	rep.Detail["setup_s_each"] = setups
	rep.Detail["cycles"] = cycles
	rep.Detail["latency_windows"] = len(reads)
	rep.Detail["latency_samples"] = samples
	rep.Detail["generator_lateness_p99_ms"] = lateness
	rep.Detail["train"] = map[string]interface{}{
		"rounds": tr.rounds, "pairs_per_round": tr.last["w2"].pairs, "pairs_per_s": tr.rates,
	}
	rep.Detail["stream"] = map[string]interface{}{
		"rounds": st.rounds, "sessions": st.sessions, "publishes": len(st.publishMs),
		"reads_ok": sumSamples(streamWindows), "read_windows": streamWindows,
		"ingest_sessions_per_s": st.ingestRate, "publish_ms": st.publishMs,
		"exact_audited": streamAudit.exactChecked, "ivf_audited": streamAudit.ivfChecked,
		"ivf_recall10": streamAudit.ivfRecallSum / float64(max(1, streamAudit.ivfChecked)),
	}
	rep.Detail["serve"] = map[string]interface{}{
		"traffic": wl.traffic.name, "ref_rps": wl.traffic.refRPS,
		"open_ok": sumSamples(sv.open), "closed_ok": sumSamples(sv.closed), "exact_audited": sv.exact,
		"open_windows": sv.open, "closed_windows": sv.closed,
	}
	if sv.ladder != nil {
		rep.Detail["ladder"] = sv.ladder
	}
	if lateness > 1 {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("generator lateness p99 is %.2f ms (> 1 ms): the load generator itself ran late", lateness))
	}

	if traced {
		rep.PerLayer = perLayer(e, tr, st, sv, o, rep)
		if err := os.MkdirAll(outDir(), 0o755); err != nil {
			return nil, err
		}
		if err := rec.writeFile(filepath.Join(outDir(), fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, seed))); err != nil {
			return nil, err
		}
	}

	for name, v := range rep.EndToEnd {
		if !(v.Value > 0) {
			o.violate("metric %s is %v: the stage that measures it did not run", name, v.Value)
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.EndToEnd["peak_rss_mb"] = value{rss, "MB"} // read last: the probes above are part of the process

	rep.Violations = o.violations
	sort.Strings(rep.Warnings)
	rep.Result = result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: rep.EndToEnd}
	if traced {
		rep.Result.Metrics = rep.PerLayer
	}
	return rep, nil
}

func scale(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}

// outDir is benchmark/out under the directory that holds BENCHMARK.json.
func outDir() string {
	root, err := rootDir()
	if err != nil {
		root = "."
	}
	return filepath.Join(root, "benchmark", "out")
}

func writeReport(rep *report) error {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if rep.Trace {
		t = 1
	}
	path := filepath.Join(outDir(), fmt.Sprintf("result-%s-seed%d-trace%d.json", rep.Workload, rep.Stamp.Seed, t))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport writes the human-readable account to standard error; the
// last line of standard output stays the machine-readable result.
func printReport(rep *report) {
	w := os.Stderr
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  commit %s  %s  GOMAXPROCS %d  nproc %d  %s\n",
		rep.Workload, rep.Stamp.Seed, rep.Trace, rep.Stamp.Commit, rep.Stamp.GoVersion, rep.Stamp.GOMAXPROCS, rep.Stamp.NProc, rep.Stamp.CPU)
	title := "end to end"
	if rep.Trace {
		title += " (traced: not for comparison)"
	}
	printMetrics(w, title, rep.EndToEnd, rep.Raw)
	printMetrics(w, "end to end, not gated", rep.NotGated, nil)
	if rep.PerLayer != nil {
		printMetrics(w, "per layer", rep.PerLayer, nil)
	}
	if b, ok := rep.Detail["budget"]; ok {
		fmt.Fprintf(w, "read-path budget (µs): %v\n", b)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed; latency samples %v; generator lateness p99 %.3f ms\n",
		rep.Result.Attempted, rep.Result.Failed, rep.Detail["latency_samples"], rep.Detail["generator_lateness_p99_ms"])
	for _, v := range rep.Violations {
		fmt.Fprintln(w, "VIOLATION:", v)
	}
	for _, v := range rep.Warnings {
		fmt.Fprintln(w, "warning:", v)
	}
}

// printMetrics lists ms by name; where raw holds a different figure for a
// name, the metric was converted to the yardstick's reference speed and the
// figure as measured is printed beside it.
func printMetrics(w *os.File, title string, ms, raw map[string]value) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s", n, ms[n].Value, ms[n].Unit)
		if r, ok := raw[n]; ok && r.Value != ms[n].Value {
			fmt.Fprintf(w, "   (as measured %.4f)", r.Value)
		}
		fmt.Fprintln(w)
	}
}
