package dist

import (
	"time"

	"sisg/internal/metrics"
	"sisg/internal/sgns"
)

// Observability for the distributed engine: a live Progress feed (shared
// sink type with the local sgns trainer) and a registry mirror exposing
// the run's counters — fault-tolerance and recovery accounting included —
// as pull-based gauges. Both sample the workers' atomic counters; neither
// touches the training hot path.

// liveStats reads the cluster-wide cumulative counters mid-run.
func (e *engine) liveStats() (pairs, retries uint64) {
	for _, wk := range e.workers {
		pairs += wk.pairs.Load()
		retries += wk.retries.Load()
	}
	return
}

// liveRemote reads the cluster-wide remote-call counters mid-run: successful
// round trips, and the wall-clock workers have spent blocked on them.
func (e *engine) liveRemote() (calls uint64, blocked time.Duration) {
	for _, wk := range e.workers {
		calls += wk.remoteCalls.Load()
		blocked += time.Duration(wk.remoteBlockedNs.Load())
	}
	return
}

// liveDeadWorkers counts workers that have EVER crashed or been declared
// dead — the cumulative ledger behind Stats.DeadWorkers, so the gauge and
// the final stats agree even after recovery revives a partition.
func (e *engine) liveDeadWorkers() int {
	n := 0
	for i := range e.everDead {
		if e.everDead[i].Load() {
			n++
		}
	}
	return n
}

// liveRecovery reads the cluster-wide recovery counters mid-run.
func (e *engine) liveRecovery() (restarts, takeovers, recovered uint64) {
	for _, wk := range e.workers {
		restarts += wk.restarts.Load()
		takeovers += wk.takenOver.Load()
		recovered += wk.recoveredPairs.Load()
	}
	return
}

// liveLR recomputes the current decayed learning rate from the shared scan
// counter — the rate every worker applies in scanSequence.
func (e *engine) liveLR() float32 {
	return sgns.DecayLR(e.opt.LR, e.opt.MinLRFrac, e.scanTokens.Load(), e.totalTokens*uint64(e.opt.Workers))
}

// registerMetrics mirrors the engine's counters into the registry as
// gauges. GaugeFunc registration replaces any previous run's closure, so a
// long-lived registry (a serving process retraining daily) always reads
// the newest run.
func (e *engine) registerMetrics(reg *metrics.Registry) {
	gauges := []struct {
		name, help string
		fn         func() float64
	}{
		{"train_pairs", "positive pairs trained so far", func() float64 { p, _ := e.liveStats(); return float64(p) }},
		{"train_remote_calls", "successful remote TNS round trips, each carrying one owner's share of a sequence", func() float64 { c, _ := e.liveRemote(); return float64(c) }},
		{"train_remote_blocked_seconds", "wall-clock workers spent waiting on remote TNS calls, summed over workers", func() float64 { _, b := e.liveRemote(); return b.Seconds() }},
		{"train_retries", "remote TNS re-sends after a deadline expired", func() float64 { _, r := e.liveStats(); return float64(r) }},
		{"train_dead_workers", "workers that ever crashed or were declared dead by the heartbeat monitor", func() float64 { return float64(e.liveDeadWorkers()) }},
		{"train_restarts", "partition resurrections performed by the supervisor", func() float64 { r, _, _ := e.liveRecovery(); return float64(r) }},
		{"train_takeovers", "partitions adopted by a survivor after the restart budget ran out", func() float64 { _, t, _ := e.liveRecovery(); return float64(t) }},
		{"train_recovered_pairs", "pairs trained by replacement incarnations after a death", func() float64 { _, _, r := e.liveRecovery(); return float64(r) }},
		{"train_tokens", "corpus tokens scanned so far, summed over workers", func() float64 { return float64(e.scanTokens.Load()) }},
		{"train_lr", "current decayed learning rate", func() float64 { return float64(e.liveLR()) }},
		{"train_workers", "configured worker count", func() float64 { return float64(e.opt.Workers) }},
		{"net_wire_bytes_sent", "bytes written to the transport wire (length prefixes included; 0 on chan)", func() float64 { return float64(e.tr.Stats().BytesSent) }},
		{"net_wire_bytes_received", "bytes read from the transport wire", func() float64 { return float64(e.tr.Stats().BytesReceived) }},
		{"net_frames_sent", "frames written to the wire (requests + replies)", func() float64 { return float64(e.tr.Stats().FramesSent) }},
		{"net_frames_received", "frames read from the wire", func() float64 { return float64(e.tr.Stats().FramesReceived) }},
		{"net_dials", "successful transport connection establishments", func() float64 { return float64(e.tr.Stats().Dials) }},
		{"net_reconnects", "severed links redialed successfully", func() float64 { return float64(e.tr.Stats().Reconnects) }},
		{"net_late_replies", "replies that arrived after their request was abandoned", func() float64 { return float64(e.tr.Stats().LateReplies) }},
	}
	for _, g := range gauges {
		//lint:allow metricname every name comes from the static literal table above; cardinality is fixed
		reg.GaugeFunc(g.name, g.help, g.fn)
	}
}

// startObservers wires the optional registry mirror and progress reporter;
// the returned stop emits the final Done snapshot and is safe to call with
// no observers configured.
func (e *engine) startObservers() (stop func()) {
	if e.opt.Metrics != nil {
		e.registerMetrics(e.opt.Metrics)
	}
	if e.opt.Progress == nil {
		return func() {}
	}
	// Every worker scans the whole corpus, so the run's total scan volume
	// is corpus × epochs × workers; the epoch estimate divides by one
	// cluster-wide pass. (Workers move through epochs independently, so
	// mid-run this is an average, not a barrier-aligned position.)
	totalScan := e.totalTokens * uint64(e.opt.Workers)
	perEpoch := totalScan / uint64(e.opt.Epochs)
	if perEpoch == 0 {
		perEpoch = 1
	}
	return sgns.StartProgress(e.opt.Progress, e.opt.ProgressEvery, e.opt.Epochs, totalScan,
		func() (epoch int, pairs, tokens uint64, lr float32) {
			p, _ := e.liveStats()
			tok := e.scanTokens.Load()
			ep := int(tok / perEpoch)
			if ep >= e.opt.Epochs {
				ep = e.opt.Epochs - 1
			}
			return ep, p, tok, e.liveLR()
		})
}
