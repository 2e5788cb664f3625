// Package race tells tests, and the chaos harness's failure-detection
// deadlines, whether the race detector is compiled in.
//
// Lock-free updates of shared rows are the training algorithm (word2vec's
// Hogwild; PAPERS.md: Item2Vec), so under -race every multi-worker
// sgns.Train is a report by design. Tests that train keep that one known
// race out by training with one worker under the detector — tests only, the
// trainers never import this package — and CI runs the same tests once more
// without the detector, on every CPU.
package race

import "time"

// Workers is the worker count a test hands a Hogwild trainer: n (0 = the
// trainer's default, one shard per CPU), or 1 under the race detector.
func Workers(n int) int {
	if Enabled {
		return 1
	}
	return n
}

// Deadline is a failure-detection deadline a test or a chaos scenario sets:
// d, or 4·d under the race detector. Everything runs several times slower
// there, and a live worker on a loaded 2-vCPU box must not be declared dead
// because the detector is on.
func Deadline(d time.Duration) time.Duration {
	if Enabled {
		return 4 * d
	}
	return d
}
