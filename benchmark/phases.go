package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"sisg/internal/dist"
	"sisg/internal/emb"
	"sisg/internal/sgns"
)

// ops counts operations attempted and failed across a run.
type ops struct {
	attempted, failed uint64
	violations        []string
}

func (o *ops) violate(format string, args ...interface{}) {
	o.failed++
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

func (o *ops) addLoad(l *loadResult) {
	o.attempted += uint64(l.sent())
	o.failed += uint64(l.failed() + l.aud.violated)
	for _, v := range l.aud.violations {
		if len(o.violations) < 20 {
			o.violations = append(o.violations, v)
		}
	}
}

// trainer is one way of training the same chunk.
type trainer struct {
	name string
	span string
	run  func(e *env, seqs [][]int32) (*emb.Model, trainStats, error)
}

// trainStats is what the benchmark reads of sgns.Stats or dist.Stats.
type trainStats struct {
	pairs, updates uint64
	elapsed        time.Duration
	dist           *dist.Stats // nil for the local trainer
}

func (s trainStats) pairsPerSec() float64 { return float64(s.pairs) / s.elapsed.Seconds() }

func localTrainer(name string, workers int) trainer {
	return trainer{name: name, span: "sgns.train_" + name, run: func(e *env, seqs [][]int32) (*emb.Model, trainStats, error) {
		m, st, err := sgns.Train(e.trainDS.Dict.Dict, seqs, trainOptions(e.seed, workers))
		return m, trainStats{pairs: st.Pairs, updates: st.Updates, elapsed: st.Elapsed}, err
	}}
}

// distTrainer is dist.Train with two workers and dist.DefaultOptions (ATNS
// hot replication on unless hot is false) over the HBGP partition.
func distTrainer(name, transport string, hot bool) trainer {
	return trainer{name: name, span: "dist.train_" + name, run: func(e *env, seqs [][]int32) (*emb.Model, trainStats, error) {
		o := dist.DefaultOptions(connections)
		o.Options = trainOptions(e.seed, connections) // wipes Workers: set it again
		o.Workers = connections
		o.Transport = transport
		o.HotReplication = hot
		m, st, err := dist.Train(e.trainDS.Dict.Dict, seqs, e.part, o)
		return m, trainStats{pairs: st.Pairs, elapsed: st.Elapsed, dist: &st}, err
	}}
}

// trainers are the four ways every round trains its chunk: the
// single-worker baseline, Hogwild on both cores, and the distributed engine
// over both transports.
var trainers = []trainer{
	localTrainer("w1", 1),
	localTrainer("w2", connections),
	distTrainer("chan", "chan", true),
	distTrainer("tcp", "tcp", true),
}

// trainResult is the train stage: per-round pairs/s of each trainer.
type trainResult struct {
	rounds int
	rates  map[string][]float64  // trainer name → pairs/s, one per round
	last   map[string]trainStats // trainer name → its last round
}

// trainStage runs rounds of the trainers until its time is spent (at least
// one round), adding to res. Each round trains the next chunk of the train
// split with every trainer in turn.
func trainStage(e *env, budget time.Duration, o *ops, res *trainResult) error {
	if res.rates == nil {
		res.rates, res.last = map[string][]float64{}, map[string]trainStats{}
	}
	chunks := len(e.seqs) / trainChunk
	deadline := time.Now().Add(budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		lo := (res.rounds % chunks) * trainChunk
		seqs := e.seqs[lo : lo+trainChunk]
		for _, t := range trainers {
			e.yard.tick()
			id, start := e.rec.begin()
			m, st, err := t.run(e, seqs)
			e.rec.end(id, 0, 0, t.span, start)
			if err != nil {
				return fmt.Errorf("trainer %s: %w", t.name, err)
			}
			res.rates[t.name] = append(res.rates[t.name], st.pairsPerSec())
			res.last[t.name] = st
			auditTraining(t.name, m, st, o)
		}
		res.rounds++
		if c, t := res.last["chan"].dist, res.last["tcp"].dist; c.Pairs != t.Pairs || c.RemotePairs != t.RemotePairs {
			// The wire must not change what is trained.
			o.violate("chan and tcp disagree: pairs %d/%d, remote pairs %d/%d", c.Pairs, t.Pairs, c.RemotePairs, t.RemotePairs)
		}
	}
	return nil
}

// auditTraining checks one trained model off the clock: every pair is
// accounted for, none degraded or dropped, every embedding finite.
func auditTraining(name string, m *emb.Model, st trainStats, o *ops) {
	o.attempted += st.pairs
	if d := st.dist; d != nil {
		o.failed += d.Degraded + d.DroppedPairs
		if d.Degraded+d.DroppedPairs != 0 || d.Pairs != d.LocalPairs+d.RemotePairs+d.Degraded {
			o.violate("dist %s: %d pairs = %d local + %d remote + %d degraded, %d dropped",
				name, d.Pairs, d.LocalPairs, d.RemotePairs, d.Degraded, d.DroppedPairs)
		}
	}
	if st.pairs == 0 {
		o.violate("trainer %s trained no pairs", name)
	}
	if !finite(m.In.Data()) || !finite(m.Out.Data()) {
		o.violate("the %s model has a non-finite embedding", name)
	}
}

func finite(xs []float32) bool {
	for _, x := range xs {
		if f := float64(x); math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// streamResult is the stream stage.
type streamResult struct {
	rounds     int
	sessions   int
	ingestRate []float64    // sessions/s per round, publishes included
	publishMs  []float64    // Streamer.Publish + Holder.Publish, every publish
	cutMs      []float64    // Streamer.Publish alone
	swapUs     []float64    // Holder.Publish alone
	rowsAtCut  []int        // VocabSize of each published generation
	ingestUs   []float64    // per session, traced runs only
	reads      []loadResult // one per stage invocation
	liveMax    int64
	pairs      uint64
}

// streamStage ingests rounds of streamRound sessions as fast as the
// streamer takes them, each ending in a publish, while one connection reads
// the served holder open-loop at streamReadRPS (a fifth of it with
// index=ivf). It runs at least one round and adds to res.
func streamStage(e *env, budget time.Duration, o *ops, res *streamResult) {
	t := e.stream
	stop := make(chan struct{})
	var (
		wg    sync.WaitGroup
		reads loadResult
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The reader runs for as long as the ingest loop does; stop ends it.
		salt := uint64(len(res.reads)) * 0x51
		reads = openLoop(1, streamReadRPS, time.Hour, e.seed^0x57+salt, stop,
			connFactory(t, traffic{}, ivfShare, e.seed^0x58+salt, e.rec))
	}()

	pairs0, rounds0 := e.streamer.Pairs(), res.rounds
	deadline := time.Now().Add(budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		e.yard.tick()
		begin := time.Now()
		for i := 0; i < streamRound; i++ {
			s := e.live.Next()
			id, start := e.rec.begin()
			e.streamer.Ingest(s)
			if id != 0 {
				e.rec.end(id, 0, 0, "sisg.ingest", start)
				res.ingestUs = append(res.ingestUs, us(time.Since(start)))
			}
		}
		// Every round ends in a full publish — Streamer.Publish plus
		// Holder.Publish — so that every round's rate includes one. Only every
		// publishEvery sessions does it go to the holder the readers pin (a
		// new generation there costs them an IVF build); the others go to a
		// shadow holder nobody reads.
		id, start := e.rec.begin()
		t0 := time.Now()
		snap := e.streamer.Publish()
		t1 := time.Now()
		if e.streamer.Sessions()%publishEvery == 0 {
			t.publish(e.rec, snap)
		} else {
			e.shadow.Publish(snap)
		}
		t2 := time.Now()
		e.rec.end(id, 0, 0, "sisg.publish", start)
		res.publishMs = append(res.publishMs, ms(t2.Sub(t0)))
		res.cutMs = append(res.cutMs, ms(t1.Sub(t0)))
		res.swapUs = append(res.swapUs, us(t2.Sub(t1)))
		res.rowsAtCut = append(res.rowsAtCut, snap.VocabSize())
		if l := t.holder.LiveGenerations(); l > res.liveMax {
			res.liveMax = l
		}
		res.ingestRate = append(res.ingestRate, float64(streamRound)/time.Since(begin).Seconds())
		res.rounds++
		res.sessions += streamRound
	}
	close(stop)
	wg.Wait()
	res.pairs += e.streamer.Pairs() - pairs0
	res.reads = append(res.reads, reads)

	o.attempted += uint64(streamRound * (res.rounds - rounds0))
	o.addLoad(&reads)
	if r, l := t.holder.Readers(), t.holder.LiveGenerations(); r != 0 || l != 1 {
		o.violate("after drain the holder has %d readers and %d live generations, want 0 and 1", r, l)
	}
}

// window is one short slice of a load phase. A phase is cut into windows
// so that a slow spell of the machine spoils the windows it covers, not
// the whole phase.
type window struct {
	P50     float64 `json:"p50_ms"` // of the 2xx answers
	P90     float64 `json:"p90_ms"`
	P99     float64 `json:"p99_ms"`
	Samples int     `json:"samples"`
	LateP99 float64 `json:"lateness_p99_ms"` // how late the generator sent
	RPS     float64 `json:"ok_per_s"`
	lat     []float64
}

// windowsOf cuts a load phase into windows of the given width by the time
// each request was due. A trailing window shorter than half the width is
// dropped: its rate would not be comparable.
func windowsOf(l *loadResult, width time.Duration) []window {
	n := int((l.duration + width/2) / width)
	if n < 1 {
		n = 1
	}
	lat, late := make([][]float64, n), make([][]float64, n)
	for _, s := range l.samples {
		i := int(s.at / width)
		if i >= n {
			continue
		}
		late[i] = append(late[i], s.lateMs)
		if s.ok {
			lat[i] = append(lat[i], s.latMs)
		}
	}
	ws := make([]window, 0, n)
	for i := range lat {
		if len(lat[i]) == 0 {
			continue
		}
		span := width
		if rest := l.duration - time.Duration(i)*width; rest < width {
			span = rest
		}
		ws = append(ws, window{
			P50: percentile(lat[i], 0.50), P90: percentile(lat[i], 0.90), P99: percentile(lat[i], 0.99), Samples: len(lat[i]),
			LateP99: percentile(late[i], 0.99), RPS: float64(len(lat[i])) / span.Seconds(), lat: lat[i],
		})
	}
	return ws
}

func column(ws []window, f func(window) float64) []float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return xs
}

func winP50(w window) float64  { return w.P50 }
func winRPS(w window) float64  { return w.RPS }
func winLate(w window) float64 { return w.LateP99 }

// pooled is a percentile over every window's latencies together, with the
// size of that sample.
func pooled(ws []window, q float64) (float64, int) {
	var pool []float64
	for _, w := range ws {
		pool = append(pool, w.lat...)
	}
	return percentile(pool, q), len(pool)
}

func sumSamples(ws []window) int {
	n := 0
	for _, w := range ws {
		n += w.Samples
	}
	return n
}

// serveResult is the serve stage on the batch target.
type serveResult struct {
	open   []window // reference rate, tracing off
	traced []window // reference rate, tracing on (traced runs only)
	closed []window
	ladder []rung
	exact  int // flat answers recomputed and compared
}

// serveStage offers the workload's read mix to the batch-trained model:
// one open-loop window at the reference rate for three fifths of its time,
// then one closed-loop window with one client per connection. A traced run
// spends half of the open loop with the recorder off, so the same process
// gives the untraced and the traced latency.
func serveStage(e *env, budget time.Duration, o *ops, res *serveResult) {
	tr := e.wl.traffic
	t := e.batch
	salt := uint64(len(res.open)) * 0x33
	openFor := budget * 3 / 5
	if e.rec != nil {
		e.rec.enabled.Store(false)
		openFor /= 2
	}
	e.yard.tick()
	open := openLoop(connections, tr.refRPS, openFor, e.seed^0x0b+salt, nil, connFactory(t, tr, 0, e.seed^0x0c+salt, e.rec))
	o.addLoad(&open)
	res.open = append(res.open, windowsOf(&open, openWindow)...)
	res.exact += open.aud.exactChecked
	if e.rec != nil {
		e.rec.enabled.Store(true)
		traced := openLoop(connections, tr.refRPS, openFor, e.seed^0x1b+salt, nil, connFactory(t, tr, 0, e.seed^0x1c+salt, e.rec))
		o.addLoad(&traced)
		res.traced = append(res.traced, windowsOf(&traced, openWindow)...)
	}
	e.yard.tick()
	closed := closedLoop(connections, budget*2/5, connFactory(t, tr, 0, e.seed^0x0d+salt, e.rec))
	o.addLoad(&closed)
	e.yard.tick()
	res.closed = append(res.closed, windowsOf(&closed, closedWindow)...)
	res.exact += closed.aud.exactChecked
}

// ladderStage climbs the rate ladder on the batch target until the first
// rung that misses the latency limit.
func ladderStage(e *env, perRung time.Duration, o *ops) []rung {
	tr := e.wl.traffic
	var rungs []rung
	for i, step := range ladderSteps {
		l := openLoop(connections, tr.refRPS*step, perRung, e.seed^uint64(0x100+i), nil,
			connFactory(e.batch, tr, 0, e.seed^uint64(0x200+i), e.rec))
		// Past the knee requests fail by design; only audit violations count
		// against the run here.
		o.attempted += uint64(l.sent())
		o.failed += uint64(l.aud.violated)
		r := judgeRung(&l, tr.limit)
		rungs = append(rungs, r)
		if !r.Pass {
			break
		}
	}
	return rungs
}
