package experiments

import (
	"runtime"

	"sisg/internal/race"
)

// The experiment runners train the way the paper's tables were produced:
// sgns.Defaults, one Hogwild shard per CPU, configured inside the runner
// where a test cannot hand it race.Workers. So under the detector this
// package's tests run on one CPU — one shard — and everything else the
// runners do concurrently (the dist engine's workers, evaluation fan-out) is
// still interleaved and still checked. CI's non-race step runs them on
// every CPU.
func init() {
	if race.Enabled {
		runtime.GOMAXPROCS(1)
	}
}
