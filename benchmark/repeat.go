package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// spec is BENCHMARK.json, as far as the benchmark reads it.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// rootDir is the directory that holds BENCHMARK.json, looked for from the
// working directory upwards.
func rootDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
}

func readSpec() (*spec, error) {
	root, err := rootDir()
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runChild runs one workload in a process of its own — peak memory and
// set-up time are per process — and returns the result line it printed.
func runChild(workload string, seed uint64, seconds float64, trace int, showReport bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	if showReport {
		cmd.Stderr = os.Stderr
	}
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return nil, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, err)
	}
	return &r, nil // an incorrect run still has a result; the caller looks at Correct
}

// allWorkloads runs every workload once and prints every metric by name.
func allWorkloads(seed uint64, seconds float64, trace int) int {
	code := 0
	for _, wl := range workloads {
		r, err := runChild(wl.name, seed, seconds, trace, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if !r.Correct {
			code = 1
		}
		line, _ := json.Marshal(struct {
			Workload string `json:"workload"`
			*result
		}{wl.name, r})
		fmt.Println(string(line))
	}
	return code
}

// repeatMode runs the full set n times, each with its own seed, and prints
// for every workload and end-to-end metric the median, the quartiles and
// the spread (interquartile distance over the median) beside the bound. It
// fails when a spread exceeds its bound (setup_s excepted, as in the
// harness), when the second half of the runs is worse than the first by
// more than the bound, or when a run is incorrect.
func repeatMode(n int, seed uint64, seconds float64) int {
	sp, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if n < 4 {
		fmt.Fprintln(os.Stderr, "benchmark: -repeat needs at least 4 runs to have two sets with quartiles")
		return 2
	}
	samples := map[string]map[string][]float64{} // workload → metric → one value per run
	code := 0
	for i := 0; i < n; i++ {
		for _, wl := range workloads {
			r, err := runChild(wl.name, seed+uint64(i), seconds, 0, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			if !r.Correct {
				fmt.Printf("run %d of %s (seed %d) is incorrect: %d of %d operations failed\n", i, wl.name, seed+uint64(i), r.Failed, r.Attempted)
				code = 1
			}
			if samples[wl.name] == nil {
				samples[wl.name] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				samples[wl.name][name] = append(samples[wl.name][name], v.Value)
			}
		}
		fmt.Fprintf(os.Stderr, "set %d of %d done\n", i+1, n)
	}
	for _, wl := range workloads {
		fmt.Printf("%s (%d runs)\n  %-24s %14s %14s %14s %8s %6s  %s\n", wl.name, n, "metric", "median", "q1", "q3", "spread", "bound", "verdict")
		for _, m := range sp.EndToEnd {
			xs := samples[wl.name][m.Name]
			q1, q3 := quartiles(xs)
			verdict := judgeRepeat(xs, m)
			if verdict != "ok" {
				code = 1
			}
			fmt.Printf("  %-24s %14.4f %14.4f %14.4f %8.3f %6.2f  %s\n", m.Name, median(xs), q1, q3, spread(xs), m.Bound, verdict)
		}
	}
	return code
}

// judgeRepeat applies the harness's two rules to one metric's runs.
func judgeRepeat(xs []float64, m specMetric) string {
	if m.Name != "setup_s" && spread(xs) > m.Bound {
		return "SPREAD EXCEEDS BOUND"
	}
	first, second := median(xs[:len(xs)/2]), median(xs[len(xs)/2:])
	worse := (second - first) / first
	if m.Better == "higher" {
		worse = (first - second) / first
	}
	if worse > m.Bound {
		return fmt.Sprintf("SECOND SET WORSE BY %.0f %%", 100*worse)
	}
	return "ok"
}
