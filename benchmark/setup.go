package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"sisg/internal/corpus"
	"sisg/internal/dist"
	"sisg/internal/graph"
	"sisg/internal/model"
	"sisg/internal/server"
	"sisg/internal/sgns"
	"sisg/internal/sisg"
	"sisg/internal/vocab"
)

var variant = sisg.VariantSISGFUD

// baseOptions are the hyper-parameters every trainer in the benchmark
// uses: Dim=64, one epoch, the offline defaults otherwise. Window is in
// item units, as sisg.Train wants it.
func baseOptions(seed uint64, workers int) sgns.Options {
	base := sgns.Defaults()
	base.Dim = dim
	base.Epochs = 1
	base.Seed = seed
	base.Workers = workers
	return base
}

// trainOptions are baseOptions widened for SISG-F-U-D's enriched sequences,
// as sgns.Train and dist.Train want them.
func trainOptions(seed uint64, workers int) sgns.Options {
	base := baseOptions(seed, workers)
	return sisg.TrainOptions(base, variant, base.Window)
}

// site is one http.Server on a loopback listener.
type site struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func openSite(h http.Handler) (*site, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &site{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return s, nil
}

// close drains the server and waits for its accept loop to end.
func (s *site) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	<-s.done
}

// genBook remembers the raw snapshots of the two most recent generations a
// target served, so a client can recompute an answer on exactly the
// generation that answered it: the current one, and the one readers in
// flight may still pin.
type genBook struct {
	mu    sync.Mutex
	snaps [2]model.Snapshot // [0] is the newer
}

func (b *genBook) add(s model.Snapshot) {
	b.mu.Lock()
	b.snaps[1], b.snaps[0] = b.snaps[0], s
	b.mu.Unlock()
}

func (b *genBook) get(gen uint64) model.Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range b.snaps {
		if s != nil && s.Generation() == gen {
			return s
		}
	}
	return nil
}

// target is one served model: what a load generator needs to send traffic
// at it and audit what comes back.
type target struct {
	ds     *corpus.Dataset
	holder *model.Holder
	srv    *server.Server
	site   *site
	book   *genBook
	seeds  []int32 // items that are servable in every generation
	hot    []int32 // most popular items first (Zipf traffic)
}

func (t *target) close() { t.site.close() }

// env is everything a run's timed stages need, built by setUp.
type env struct {
	wl   workload
	seed uint64
	rec  *recorder
	yard *yardstick

	// Write path.
	trainDS *corpus.Dataset
	split   *corpus.Split
	seqs    [][]int32
	part    *graph.Partition

	// Read path: the batch-trained 50k × 64 model.
	batch      *target
	serveModel *sisg.Model

	// Streaming path.
	live     *corpus.Live
	streamer *sisg.Streamer
	stream   *target
	shadow   *model.Holder // takes the publishes the readers are spared

	// Set-up layer timings, for the per-layer report.
	generateMs, enrichMs, hbgpMs float64
}

func (e *env) close() {
	e.batch.close()
	e.stream.close()
}

// setUp builds the corpora, trains the served model, partitions the
// training graph, warms the stream and opens both servers. Everything a
// user would wait for before the first request or the first training pair
// is in here, which is what setup_s times.
func setUp(wl workload, seed uint64, rec *recorder) (*env, error) {
	e := &env{wl: wl, seed: seed, rec: rec}

	// Training corpus, split and HBGP partition.
	tcfg := corpus.Sim25K()
	tcfg.Seed = seed
	tcfg.NumSessions = trainSessions
	t0 := time.Now()
	ds, err := corpus.Generate(tcfg)
	if err != nil {
		return nil, fmt.Errorf("generate training corpus: %w", err)
	}
	e.generateMs = ms(time.Since(t0))
	e.trainDS = ds
	e.split = ds.SplitNextItem(testFrac)
	t0 = time.Now()
	e.seqs = sisg.Enrich(ds.Dict, e.split.Train, variant)
	e.enrichMs = ms(time.Since(t0))
	t0 = time.Now()
	e.part, _, err = dist.PartitionForDataset(ds, e.split.Train, connections)
	if err != nil {
		return nil, fmt.Errorf("hbgp: %w", err)
	}
	e.hbgpMs = ms(time.Since(t0))

	// Served model.
	scfg := corpus.Sim25K()
	scfg.Seed = seed + 1
	scfg.NumItems = serveItems
	scfg.NumSessions = serveSessions
	sds, err := corpus.Generate(scfg)
	if err != nil {
		return nil, fmt.Errorf("generate serving corpus: %w", err)
	}
	m, err := sisg.Train(sds.Dict, sds.Sessions, variant, baseOptions(seed, connections))
	if err != nil {
		return nil, err
	}
	e.serveModel = m
	snap := sisg.NewModelSnapshot(m, 1)
	e.batch, err = openTarget(sds, snap, wl.traffic.cache, rec)
	if err != nil {
		return nil, err
	}
	e.batch.seeds = make([]int32, serveItems)
	for i := range e.batch.seeds {
		e.batch.seeds[i] = int32(i)
	}
	e.batch.hot = popularItems(sds, hotItems)

	// Live stream, warmed to generation 1.
	lcfg := corpus.Sim25K()
	lcfg.Seed = seed + 2
	e.live, err = corpus.NewLive(corpus.LiveConfig{
		Base: lcfg, ReserveItems: reserveItems, LaunchEvery: launchEvery, DriftEvery: driftEvery,
	})
	if err != nil {
		e.batch.close()
		return nil, err
	}
	budget := e.live.Dict.Len()
	lo := sgns.LiveDefaults(budget)
	lo.Dim = dim
	lo.Seed = seed
	e.streamer, err = sisg.NewStreamer(e.live.Dict, sisg.StreamConfig{
		Variant: variant,
		Admit:   vocab.AdmitConfig{Budget: budget, MinCount: 1},
		Live:    lo,
	})
	if err != nil {
		e.batch.close()
		return nil, err
	}
	seen := make(map[int32]bool)
	var warm []int32
	for i := 0; i < warmSessions; i++ {
		s := e.live.Next()
		for _, it := range s.Items {
			if !seen[it] {
				seen[it] = true
				warm = append(warm, it)
			}
		}
		e.streamer.Ingest(s)
	}
	e.stream, err = openTarget(e.live.Dataset(), e.streamer.Publish(), 0, rec)
	if err != nil {
		e.batch.close()
		return nil, err
	}
	e.stream.seeds = warm
	e.shadow = model.NewHolder(e.stream.book.get(1))

	if err := warmUp(e.batch, wl.traffic); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// openTarget publishes first into a fresh holder and serves it from a real
// http.Server on loopback. No RetrievalDelay: every scan is a real scan.
func openTarget(ds *corpus.Dataset, first model.Snapshot, cache int, rec *recorder) (*target, error) {
	t := &target{ds: ds, book: &genBook{}}
	t.book.add(first)
	t.holder = model.NewHolder(wrapSnapshot(rec, first))
	t.srv = server.NewWithHolder(ds, t.holder, server.Config{CacheSize: cache})
	var err error
	t.site, err = openSite(wrapHandler(rec, t.srv.Handler()))
	return t, err
}

// publish hands a new generation to the target's holder.
func (t *target) publish(rec *recorder, snap model.Snapshot) {
	t.book.add(snap)
	t.holder.Publish(wrapSnapshot(rec, snap))
}

// popularItems returns the n most clicked items, most popular first.
func popularItems(ds *corpus.Dataset, n int) []int32 {
	ids := make([]int32, ds.Dict.NumItems)
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		ca, cb := ds.Dict.Count(ids[a]), ds.Dict.Count(ids[b])
		if ca != cb {
			return ca > cb
		}
		return ids[a] < ids[b]
	})
	if n > len(ids) {
		n = len(ids)
	}
	return ids[:n]
}

// warmUp lets connection set-up, first-touch page faults and, for cached
// traffic, the result cache finish before anything is timed.
func warmUp(t *target, tr traffic) error {
	var items []int32
	if tr.zipf {
		items = t.hot
	} else {
		items = t.seeds[:64]
	}
	c := newClient(t, nil)
	defer c.finish()
	for _, it := range items {
		out := c.do(request{kind: kindSimilar, item: it}, time.Now())
		if out.status != http.StatusOK {
			return fmt.Errorf("warm-up: item %d answered %d (%s)", it, out.status, out.bad)
		}
	}
	return nil
}
