package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// stamp says what produced a result: a number without it cannot be
// compared with anything.
type stamp struct {
	Commit     string                 `json:"commit"`
	GoVersion  string                 `json:"go_version"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NProc      int                    `json:"nproc"`
	CPU        string                 `json:"cpu_model"`
	Seed       uint64                 `json:"seed"`
	Constants  map[string]interface{} `json:"constants"`
}

func newStamp(seed uint64) stamp {
	return stamp{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Seed:       seed,
		Constants:  constants(),
	}
}

func (s stamp) warnings() []string {
	var out []string
	if s.GOMAXPROCS > s.NProc {
		out = append(out, fmt.Sprintf("GOMAXPROCS %d exceeds nproc %d: goroutines will time-share cores", s.GOMAXPROCS, s.NProc))
	}
	if connections > s.NProc {
		out = append(out, fmt.Sprintf("%d client connections exceed nproc %d", connections, s.NProc))
	}
	return out
}

// commit is the revision run.sh found the checkout at ("unknown" in an
// exported tree, which is not a git repository).
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is VmHWM, the process's peak resident set so far.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
