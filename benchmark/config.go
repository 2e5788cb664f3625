package main

import "time"

// Frozen workload constants. They were calibrated once on the 2-core
// reference box (see README.md, "Calibration record") and are part of every
// result's stamp; changing one starts a new baseline.
const (
	dim = 64 // embedding dimension everywhere
	k   = 20 // candidate-set size of every request

	// Serving model: the BENCH_retrieval.json shape, 50k items × 64 dims.
	// Scan cost does not depend on model quality, so set-up trains it on a
	// short session log.
	serveItems    = 50_000
	serveSessions = 2_000

	// Training corpus: Sim25K's catalog with a shorter session log, split
	// for the next-item protocol.
	trainSessions = 6_000
	trainChunk    = 100 // sessions per training round, per trainer
	testFrac      = 0.1

	// Live stream.
	reserveItems  = 2_000
	launchEvery   = 10
	driftEvery    = 5_000
	warmSessions  = 1_000 // ingested in set-up, before generation 1
	streamRound   = 500   // sessions per ingest round; each round ends in one publish
	publishEvery  = 1_000 // sessions between publishes to the holder the readers pin
	streamReadRPS = 300   // open-loop read rate beside the ingest loop
	ivfShare      = 0.2   // share of stream reads sent with index=ivf

	// serve_cached traffic.
	hotItems  = 512 // Zipf(1.1) over this many most popular items
	zipfExp   = 1.1
	cacheSize = 8_192

	auditEvery    = 50 // one flat answer in this many is recomputed
	ivfAuditEvery = 5  // one IVF answer in this many is scored for recall
	// Recall@10 the IVF layer must reach against the flat answer. The served,
	// converged model is held to the issue's 0.9 (it measures 0.99, in traced
	// runs). The stream's generations are a few thousand sessions old and
	// still full of Eq. 6-seeded near-duplicates that tie: over 80 runs of the
	// commit that added the benchmark the mean of a run's audited answers (57
	// to 145 of them) was 0.82 at least, 0.89 at the median, 0.94 at most, so
	// the stream's floor is 0.85 of that median, applied once minIVFAudited
	// answers were scored.
	batchIVFRecall = 0.9
	minIVFRecall   = 0.75
	minIVFAudited  = 20

	// hr10 is HR@10 of a single-worker model on the quality corpus (see
	// qualityCorpus), whose seed is frozen. committedHR10 is its median over
	// trainer seeds 1 to 20 at the commit that added the benchmark (they
	// range from 0.053 to 0.067); a run that scores less than minHR10Share of
	// it fails.
	qualitySeed   = 12
	committedHR10 = 0.0592
	minHR10Share  = 0.8

	clientTimeout = 2 * time.Second
	connections   = 2 // client connections; never more than nproc

	// Latency limits of the rate ladder: 99 % of requests sent must be
	// answered 2xx within the limit.
	scanLimit   = 10 * time.Millisecond
	cachedLimit = 5 * time.Millisecond
	sloShare    = 0.99

	runSeconds   = 20 // default -seconds; BENCHMARK.json's run_seconds
	setupRepeats = 3  // set-ups per run; setup_s is their median

	cycleLength  = 4 * time.Second        // one pass over the three stages
	openWindow   = 500 * time.Millisecond // open-loop phases are cut into windows this wide
	closedWindow = 125 * time.Millisecond // and closed-loop phases into these
	streamWindow = time.Second            // stream reads: a window should see a publish
	ladderRung   = time.Second            // how long one rung of the ladder offers load
)

// ladderSteps are the rungs of the rate ladder, as multiples of the
// workload's reference rate. They grow by about a fifth per rung, so "one
// rung" is inside the 25 % the harness allows a bound to be.
var ladderSteps = []float64{0.6, 0.8, 1, 1.2, 1.45, 1.75, 2.1, 2.5, 3}

// traffic is the read mix a serve phase offers.
type traffic struct {
	name     string
	refRPS   float64       // reference open-loop rate
	limit    time.Duration // ladder latency limit
	coldItem float64       // share of POST /v1/coldstart/item
	coldUser float64       // share of POST /v1/coldstart/user
	zipf     bool          // seeds Zipf over the hot items, else uniform over the catalog
	cache    int           // server.Config.CacheSize
}

var (
	scanTraffic   = traffic{name: "scan", refRPS: 600, limit: scanLimit, coldItem: 0.05, coldUser: 0.05}
	cachedTraffic = traffic{name: "cached", refRPS: 4000, limit: cachedLimit, zipf: true, cache: cacheSize}
)

// workload is one input mix for the whole matching-stage pipeline. Every
// run executes the three stages (train, stream, serve) so that every
// end-to-end metric is measured by real work in every run; the workload
// chooses the read traffic and which stage receives most of the run's
// time. The other two stages run as short reference slices.
type workload struct {
	name string
	why  string
	// Shares of -seconds given to each stage; they sum to 1.
	train, stream, serve float64
	traffic              traffic
	// streamReads takes the latency metrics from the reads that run beside
	// the ingest loop instead of from the serve stage.
	streamReads bool
}

var workloads = []workload{
	{
		name:  "serve_scan",
		why:   "uncached uniform reads: every request is an exact 50k x 64 scan, so knn and vecmath own the request",
		train: 0.25, stream: 0.25, serve: 0.5,
		traffic: scanTraffic,
	},
	{
		name:  "serve_cached",
		why:   "Zipf reads on a warm cache: about all hits, so server and net/http do the work and knn almost none",
		train: 0.25, stream: 0.25, serve: 0.5,
		traffic: cachedTraffic,
	},
	{
		name:  "stream_swap",
		why:   "reads beside streaming ingest and publishes: each generation's lazy IVF build lands on the read path",
		train: 0.25, stream: 0.5, serve: 0.25,
		traffic:     scanTraffic,
		streamReads: true,
	},
	{
		name:  "train",
		why:   "the write path: sgns with 1 and 2 workers and dist over chan and tcp get half of the run, in many short rounds",
		train: 0.5, stream: 0.25, serve: 0.25,
		traffic: scanTraffic,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// constants is the frozen part of the stamp.
func constants() map[string]interface{} {
	return map[string]interface{}{
		"dim": dim, "k": k, "serve_items": serveItems, "serve_sessions": serveSessions,
		"train_sessions": trainSessions, "train_chunk": trainChunk, "test_frac": testFrac,
		"reserve_items": reserveItems, "launch_every": launchEvery, "drift_every": driftEvery,
		"warm_sessions": warmSessions, "stream_round": streamRound, "publish_every": publishEvery,
		"stream_read_rps": streamReadRPS, "ivf_share": ivfShare,
		"hot_items": hotItems, "zipf_exp": zipfExp, "cache_size": cacheSize,
		"scan_ref_rps": scanTraffic.refRPS, "cached_ref_rps": cachedTraffic.refRPS,
		"scan_limit_ms": ms(scanLimit), "cached_limit_ms": ms(cachedLimit), "slo_share": sloShare,
		"ladder_steps": ladderSteps, "audit_every": auditEvery, "ivf_audit_every": ivfAuditEvery,
		"quality_seed": qualitySeed, "committed_hr10": committedHR10, "connections": connections,
		"setup_repeats": setupRepeats, "yard_peak": yardPeak, "yard_typical": yardTypical, "rate_elasticity": rateElasticity, "time_elasticity": timeElasticity,
	}
}
