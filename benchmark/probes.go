package main

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"sisg/internal/corpus"
	"sisg/internal/eval"
	"sisg/internal/knn"
	"sisg/internal/model"
	"sisg/internal/rng"
	"sisg/internal/server"
	"sisg/internal/sgns"
	"sisg/internal/sisg"
	"sisg/internal/vecmath"
)

const (
	probeQueries   = 200 // query vectors replayed against the index
	probeKernel    = 40  // passes over the served matrix per kernel probe
	probeAcquires  = 200_000
	nonHotSessions = 120 // sessions of the dist phases with hot replication off
)

// timeEach runs f n times and returns the median duration of one call.
func timeEach(n int, f func(i int)) time.Duration {
	xs := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f(i)
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs))
}

// perLayer measures every layer from outside, on the models the run just
// served and trained, and combines the result with the spans the stages
// recorded. It fills rep.Detail with the read-path budget table and
// returns the per-layer metrics by name.
func perLayer(e *env, tr *trainResult, st *streamResult, sv *serveResult, o *ops, rep *report) map[string]value {
	out := map[string]value{}
	put := func(name string, v float64, unit string) { out[name] = value{v, unit} }
	e.rec.enabled.Store(false) // the probes below time the layers bare

	// ---- vecmath: the two scan kernels over the served 50k × 64 matrix.
	mat := e.serveModel.Emb.Out // SISG-F-U-D scores in·out: the index scans Out
	rows := e.serveModel.Dict.NumItems
	data := mat.Data()[:rows*dim]
	q := e.serveModel.QueryVector(0)
	dst := make([]float32, rows)
	put("vecmath.dotrows_ns_per_row", float64(timeEach(probeKernel, func(int) { vecmath.DotRows(dst, data, q) }))/float64(rows), "ns")
	codes := make([]int8, rows*dim)
	for r := 0; r < rows; r++ {
		vecmath.QuantizeRow(codes[r*dim:(r+1)*dim], data[r*dim:(r+1)*dim])
	}
	qc := make([]int8, dim)
	vecmath.QuantizeRow(qc, q)
	var sink int32
	put("vecmath.dotint8_ns_per_row", float64(timeEach(probeKernel, func(int) {
		for r := 0; r < rows; r++ {
			sink += vecmath.DotInt8(codes[r*dim:(r+1)*dim], qc)
		}
	}))/float64(rows), "ns")
	rep.Detail["dotint8_checksum"] = sink

	// ---- knn: replay the workload's query vectors against the index.
	snap := e.batch.book.get(1)
	ix := snap.Index()
	mx := newMix(e.batch, traffic{zipf: e.wl.traffic.zipf}, 0, e.seed^0x9b)
	seeds := make([]int32, probeQueries)
	for i := range seeds {
		seeds[i] = mx.next().item
	}
	flat := make([][]knn.Result, probeQueries)
	query := func(opts knn.Options, keep [][]knn.Result) time.Duration {
		return timeEach(probeQueries, func(i int) {
			rs, err := ix.Query(bg, e.serveModel.QueryVector(seeds[i]), opts)
			if err != nil {
				o.violate("index query: %v", err)
			}
			if keep != nil {
				keep[i] = rs
			}
		})
	}
	tiles0 := ix.TilesScanned()
	flatUs := us(query(knn.Options{K: k}, flat))
	put("knn.tiles_per_query", float64(ix.TilesScanned()-tiles0)/probeQueries, "count")
	put("knn.flat_query_us", flatUs, "us")
	put("knn.flat_p1_query_us", us(query(knn.Options{K: k, Parallelism: 1}, nil)), "us")
	ivf := make([][]knn.Result, probeQueries)
	query(knn.Options{K: k, Index: knn.IndexIVF}, nil) // the first IVF query builds the layer; keep that out of the replay
	put("knn.ivf_query_us", us(query(knn.Options{K: k, Index: knn.IndexIVF}, ivf)), "us")
	recall := 0.0
	for i := range flat {
		recall += recallResults(flat[i], ivf[i], 10)
	}
	put("knn.ivf_recall10", recall/probeQueries, "fraction")
	if recall/probeQueries < batchIVFRecall {
		o.violate("ivf recall@10 of the served model is %.3f, below %.2f", recall/probeQueries, batchIVFRecall)
	}

	// The lazy IVF build: first IVF query on a fresh index of the same
	// matrix, minus a steady-state one.
	fresh := knn.NewIndex(mat, rows, false)
	t0 := time.Now()
	if _, err := fresh.Query(bg, q, knn.Options{K: k, Index: knn.IndexIVF}); err != nil {
		o.violate("ivf build query: %v", err)
	}
	first := time.Since(t0)
	steady := timeEach(20, func(int) { _, _ = fresh.Query(bg, q, knn.Options{K: k, Index: knn.IndexIVF}) })
	put("knn.ivf_build_ms", ms(first-steady), "ms")

	// ---- model: the holder alone.
	h := model.NewHolder(snap)
	t0 = time.Now()
	for i := 0; i < probeAcquires; i++ {
		_, release := h.Acquire()
		release()
	}
	put("model.acquire_ns", float64(time.Since(t0))/probeAcquires, "ns")
	put("model.publish_us", median(st.swapUs), "us")
	put("model.live_generations_max", float64(st.liveMax), "count")
	put("model.retired", float64(e.stream.holder.Retired()), "count")

	// ---- sisg: the three retrieval paths of the snapshot, called bare.
	similarUs := us(timeEach(probeQueries, func(i int) {
		if _, err := snap.Similar(bg, seeds[i:i+1], knn.Options{K: k}); err != nil {
			o.violate("snapshot similar: %v", err)
		}
	}))
	put("sisg.similar_us", similarUs, "us")
	cold := newMix(e.batch, traffic{coldItem: 1}, 0, e.seed^0x9c)
	put("sisg.cold_item_us", us(timeEach(probeQueries/4, func(int) {
		qv, err := snap.ColdItemVectorFromNames(cold.siTokens())
		if err == nil {
			_, err = snap.SimilarToVector(bg, qv, k, nil)
		}
		if err != nil {
			o.violate("snapshot cold item: %v", err)
		}
	})), "us")
	r := rng.New(e.seed ^ 0x9d)
	pop := e.batch.ds.Pop
	put("sisg.cold_user_us", us(timeEach(probeQueries/4, func(int) {
		ut := pop.Types[r.Intn(len(pop.Types))]
		types := pop.TypesMatching(int(ut.Gender), int(ut.Age), int(ut.Power))
		if _, err := snap.RecommendForColdUser(bg, types, k); err != nil {
			o.violate("snapshot cold user: %v", err)
		}
	})), "us")

	// ---- server: the handler without a socket, cache off and cache warm.
	handle := func(cache int) float64 {
		srv := server.NewWithHolder(e.batch.ds, h, server.Config{CacheSize: cache})
		hd := srv.Handler()
		call := func(i int) {
			w := httptest.NewRecorder()
			hd.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/similar?k="+strconv.Itoa(k)+"&item="+strconv.Itoa(int(seeds[i])), nil))
			if w.Code != http.StatusOK {
				o.violate("handler probe answered %d", w.Code)
			}
		}
		if cache > 0 {
			for i := range seeds {
				call(i) // fill
			}
		}
		return us(timeEach(probeQueries, call))
	}
	missUs, hitUs := handle(0), handle(cacheSize)
	put("server.handler_miss_us", missUs, "us")
	put("server.handler_hit_us", hitUs, "us")

	// What the served traffic did to the live server.
	ss := e.batch.srv.Stats()
	reg := e.batch.srv.Registry()
	hits, _ := reg.Value("retrieval_cache_hits_total")
	misses, _ := reg.Value("retrieval_cache_misses_total")
	served := float64(ss.Similar + ss.ColdItem + ss.ColdUser)
	put("server.cache_hit_share", share(hits, hits+misses), "fraction")
	put("server.coalesced_share", share(float64(ss.Coalesced), served), "fraction")
	put("server.shed_share", share(float64(ss.Shed), served+float64(ss.Shed)), "fraction")
	put("server.brownout_entered", float64(ss.BrownoutEntered), "count")

	// ---- the read-path budget, from the spans of the traced windows.
	spans := e.rec.snapshot()
	b := readBudget(spans, flatUs, similarUs)
	rep.Detail["budget"] = b
	put("http.loopback_us", b.LoopbackUs, "us")
	put("read.knn_share", b.KnnShare, "fraction")
	put("read.unexplained_share", b.UnexplainedShare, "fraction")
	untraced, _ := pooled(sv.open, 0.5)
	traced, _ := pooled(sv.traced, 0.5)
	put("trace.overhead_share", (traced-untraced)/untraced, "fraction")
	for name, v := range rep.NotGated {
		out[name] = v
	}

	// ---- set-up layers.
	put("corpus.generate_ms", e.generateMs, "ms")
	put("sisg.enrich_ms", e.enrichMs, "ms")
	put("graph.hbgp_ms", e.hbgpMs, "ms")

	// ---- sgns and dist, from the rounds of the train stage.
	w1, w2 := topDecile(tr.rates["w1"]), topDecile(tr.rates["w2"])
	put("sgns.w1_ns_per_pair", 1e9/w1, "ns")
	put("sgns.updates_per_pair", float64(tr.last["w1"].updates)/float64(tr.last["w1"].pairs), "count")
	put("sgns.scaling_eff", w2/(connections*w1), "fraction")
	dt := tr.last["tcp"].dist
	put("dist.remote_share", dt.RemoteFraction(), "fraction")
	put("dist.imbalance", dt.Imbalance(), "ratio")
	put("dist.hot_tokens", float64(dt.HotTokens), "count")
	rep.Detail["dist_counters"] = map[string]uint64{
		"retries": dt.Retries, "degraded": dt.Degraded, "dropped_pairs": dt.DroppedPairs, "reconnects": dt.Reconnects,
	}

	// The wire's cost per remote pair: both transports again with hot
	// replication off (so many pairs cross), the local-only cost of the
	// same pairs subtracted.
	seqs := e.seqs[:nonHotSessions]
	localNs := 1e9 / w2 // per pair, both workers busy
	for _, t := range []trainer{distTrainer("chan_cold", "chan", false), distTrainer("tcp_cold", "tcp", false)} {
		m, s, err := t.run(e, seqs)
		if err != nil {
			o.violate("%s: %v", t.name, err)
			continue
		}
		auditTraining(t.name, m, s, o)
		d := s.dist
		wire := (float64(s.elapsed) - float64(d.Pairs)*localNs) / float64(d.RemotePairs) / 1e3
		if t.name == "chan_cold" {
			put("dist.chan_us_per_remote_pair", wire, "us")
			continue
		}
		put("dist.tcp_us_per_remote_pair", wire, "us")
		// TCP only: chan counts requests, tcp requests and replies, so a
		// chan column would not be comparable.
		put("dist.tcp_bytes_per_remote_pair", float64(d.WireBytesSent)/float64(d.RemotePairs), "B")
		put("dist.tcp_frames_per_remote_pair", float64(d.WireFrames)/float64(d.RemotePairs), "count")
	}

	// ---- the streamer.
	put("sisg.ingest_us_per_session", median(st.ingestUs), "us")
	put("sisg.pairs_per_session", float64(st.pairs)/float64(st.sessions), "count")
	perKRow := make([]float64, len(st.cutMs))
	for i := range perKRow {
		perKRow[i] = st.cutMs[i] / (float64(st.rowsAtCut[i]) / 1000)
	}
	put("sisg.publish_ms_per_krow", median(perKRow), "ms")
	put("vocab.admitted_rows", float64(e.streamer.Admitted()), "count")
	put("sisg.seeded_items", float64(e.streamer.SeededItems()), "count")
	put("server.gen_first_ivf_ms", firstIVFPerGeneration(st.reads), "ms")
	put("knn.stream_ivf_build_ms", streamIVFBuild(e), "ms")
	return out
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func recallResults(want, got []knn.Result, n int) float64 {
	cs := make([]server.Candidate, len(got))
	for i, g := range got {
		cs[i] = server.Candidate{Item: g.ID}
	}
	return recallAt(want, cs, n)
}

// budget is the read-path budget table of one traced run: the client's
// median latency against the sum of the layers' median self times.
type budget struct {
	Requests         int     `json:"requests"`
	ClientP50Us      float64 `json:"client_p50_us"`
	LoopbackUs       float64 `json:"http_loopback_us"` // client span − handler span: socket + net/http
	HandlerSelfUs    float64 `json:"server_handler_self_us"`
	SnapshotSelfUs   float64 `json:"sisg_snapshot_self_us"` // snapshot span − the bare index query
	KnnUs            float64 `json:"knn_query_us"`
	SnapshotShare    float64 `json:"requests_reaching_snapshot"`
	KnnShare         float64 `json:"knn_share"`
	ResidueUs        float64 `json:"residue_us"`
	UnexplainedShare float64 `json:"unexplained_share"`
}

// readBudget explains the client's median latency layer by layer. knnUs
// and similarUs are the bare index query and the bare Snapshot.Similar,
// measured by replay: the spans say how long the snapshot call took inside
// a request, the replay says how much of that the index owns.
func readBudget(spans []span, knnUs, similarUs float64) budget {
	self := selfTimes(spans)
	kids := map[uint64][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	var client, loopback, handlerSelf, snapshot []float64
	for _, c := range spans {
		if c.Name != "client" {
			continue
		}
		client = append(client, us(c.dur()))
		for _, h := range kids[c.ID] {
			loopback = append(loopback, us(c.dur()-h.dur()))
			handlerSelf = append(handlerSelf, us(self[h.ID]))
			for _, s := range kids[h.ID] {
				snapshot = append(snapshot, us(s.dur()))
			}
		}
	}
	b := budget{Requests: len(client)}
	if len(client) == 0 {
		return b
	}
	b.ClientP50Us = median(client)
	b.LoopbackUs = median(loopback)
	b.HandlerSelfUs = median(handlerSelf)
	b.SnapshotShare = float64(len(snapshot)) / float64(len(client))
	if len(snapshot) > 0 {
		// Weighted by how many requests reach the snapshot at all: on a
		// warm cache almost none do.
		knn := knnUs
		if m := median(snapshot); m < knn {
			knn = m
		}
		b.KnnUs = b.SnapshotShare * knn
		b.SnapshotSelfUs = b.SnapshotShare * (median(snapshot) - knn)
	}
	b.KnnShare = b.KnnUs / b.ClientP50Us
	b.ResidueUs = b.ClientP50Us - b.LoopbackUs - b.HandlerSelfUs - b.SnapshotSelfUs - b.KnnUs
	b.UnexplainedShare = b.ResidueUs / b.ClientP50Us
	if b.UnexplainedShare < 0 {
		b.UnexplainedShare = -b.UnexplainedShare
	}
	return b
}

// firstIVFPerGeneration is the median, over generations, of the latency of
// the first index=ivf answer carrying that generation: the request that
// pays for the generation's lazy IVF build.
func firstIVFPerGeneration(reads []loadResult) float64 {
	var firsts []float64
	for i := range reads {
		seen := map[uint64]bool{}
		for _, s := range reads[i].samples {
			if s.kind == kindSimilarIVF && s.ok && !seen[s.gen] {
				seen[s.gen] = true
				firsts = append(firsts, s.latMs)
			}
		}
	}
	return median(firsts)
}

// streamIVFBuild is knn.ivf_build_ms at the stream's size: a fresh
// generation cut now, its first IVF query minus a steady-state one.
func streamIVFBuild(e *env) float64 {
	ix := e.streamer.Publish().Index()
	q := make([]float32, dim)
	q[0] = 1
	t0 := time.Now()
	_, _ = ix.Query(bg, q, knn.Options{K: k, Index: knn.IndexIVF})
	first := time.Since(t0)
	steady := timeEach(20, func(int) { _, _ = ix.Query(bg, q, knn.Options{K: k, Index: knn.IndexIVF}) })
	return ms(first - steady)
}

// qualityCorpus is a catalog small enough for a short session log to cover
// it densely: on Sim25K's 25k items, 6 000 sessions leave most items with a
// handful of clicks and HR@10 under one per cent, which says nothing. Its
// seed is frozen, so that hr10 has one committed value to be held against;
// the run's seed goes to the trainer.
func qualityCorpus() corpus.Config {
	c := corpus.Sim25K()
	c.Name = "Sim5K"
	c.Seed = qualitySeed
	c.NumItems = 5_000
	c.NumLeafCats = 100
	c.NumShops = 400
	c.NumBrands = 150
	c.NumSessions = trainSessions
	return c
}

// hitRate10 trains one single-worker model on the quality corpus's train
// split and returns its HR@10 on the held-out next items, by exact flat
// retrieval; deterministic under the seed. A run whose trainer has learned
// less than minHR10Share of the committed value is not correct, however
// fast it trained.
func hitRate10(seed uint64, o *ops) (float64, int) {
	ds, err := corpus.Generate(qualityCorpus())
	if err != nil {
		o.violate("hr10 corpus: %v", err)
		return 0, 0
	}
	split := ds.SplitNextItem(testFrac)
	m, _, err := sgns.Train(ds.Dict.Dict, sisg.Enrich(ds.Dict, split.Train, variant), trainOptions(seed, 1))
	if err != nil {
		o.violate("hr10 model: %v", err)
		return 0, 0
	}
	sm := &sisg.Model{Variant: variant, Dict: ds.Dict, Emb: m}
	sm.ItemIndex() // built lazily and not for concurrent first use; Evaluate fans out
	rec := eval.RecommenderFunc(func(tc corpus.TestCase, n int) []knn.Result {
		rs, err := sm.SimilarOne(bg, tc.Query, knn.Options{K: n})
		if err != nil {
			return nil
		}
		return rs
	})
	r := eval.Evaluate("w1", rec, split.Test, []int{10})
	if floor := minHR10Share * committedHR10; r.HR[10] < floor {
		o.violate("hr10 %.4f is below %.4f, %.1f times the committed %.4f", r.HR[10], floor, minHR10Share, committedHR10)
	}
	return r.HR[10], r.Tests
}
