// Command sisg-train trains a SISG variant (stages 1-4 of §III-C plus the
// training itself) and writes the embedding model.
//
// Local (Hogwild) training:
//
//	sisg-train -corpus Sim25K -variant SISG-F-U-D -out model.emb
//
// Simulated-distributed training with HBGP + ATNS (§III):
//
//	sisg-train -corpus Sim25K -variant SISG-F-U-D -workers 8 -out model.emb
//
// Sessions are regenerated deterministically from the corpus config, or
// read from a file produced by sisg-datagen via -sessions.
//
// Crash recovery: with -checkpoint-dir the trainer snapshots model and
// progress roughly every -checkpoint-every pairs; a killed run restarted
// with the same flags plus -resume continues from the last snapshot.
// (-warm-start is different: it seeds a fresh run from yesterday's model,
// the paper's daily incremental update.)
//
// Self-healing (simulated-distributed only): -recovery makes the
// supervisor resurrect workers the heartbeat monitor declares dead (up to
// -max-restarts times each, from their durable scan cursor) and then hand
// their partition to a surviving worker, so no training pair is ever
// dropped or degraded by a death.
//
// Observability: -metrics prints periodic progress lines (pairs/sec,
// tokens/sec, current LR, ETA) during training; -pprof-addr exposes
// net/http/pprof plus a Prometheus /metrics page on a sidecar listener,
// so a long daily-update run can be profiled and scraped while it works.
//
// Streaming training with zero-downtime serving:
//
//	sisg-train -stream -corpus tiny -reserve-items 40 -launch-every 25 \
//	    -publish-every 500 -serve localhost:8080
//
// -stream replaces the batch epochs with an endless ingest loop over a
// live session generator (drifting popularity, new items launching over
// time): tokens are admitted under -vocab-budget by a count-min sketch,
// newly admitted items are Eq. 6-seeded from their side information
// BEFORE any gradient touches them, and every -publish-every sessions an
// immutable snapshot generation is published. With -serve, the latest
// generation is hot-swapped into a serving tier on that address —
// in-flight requests keep the snapshot they started on; new requests see
// the new generation. -stream-sessions bounds the ingest window (0 runs
// until SIGINT/SIGTERM); with -serve the process keeps serving the final
// generation after the window until signalled.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sisg/internal/corpus"
	"sisg/internal/dist"
	"sisg/internal/emb"
	"sisg/internal/experiments"
	"sisg/internal/metrics"
	"sisg/internal/model"
	"sisg/internal/seqio"
	"sisg/internal/server"
	"sisg/internal/sgns"
	"sisg/internal/sisg"
	"sisg/internal/vocab"
)

// logProgress renders one live training snapshot as a log line.
func logProgress(p sgns.Progress) {
	if p.Done {
		log.Printf("progress: done: %d pairs, %d tokens in %v",
			p.Pairs, p.Tokens, p.Elapsed.Round(time.Millisecond))
		return
	}
	log.Printf("progress: %3.0f%% epoch %d/%d | %.0f pairs/s, %.0f tokens/s | lr %.5f | ETA %v",
		100*p.Fraction(), p.Epoch+1, p.Epochs,
		p.PairsPerSec, p.TokensPerSec, p.LR, p.ETA.Round(time.Second))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sisg-train: ")
	var (
		corpusName = flag.String("corpus", "quick", "dataset config: Sim25K, Sim100K, Sim800K, quick, tiny")
		sessions   = flag.String("sessions", "", "optional session file from sisg-datagen (binary format)")
		variant    = flag.String("variant", "SISG-F-U-D", "model variant: SGNS, SISG-F, SISG-U, SISG-F-U, SISG-F-U-D")
		out        = flag.String("out", "model.emb", "output embedding file")
		dim        = flag.Int("dim", 32, "embedding dimension")
		window     = flag.Int("window", 5, "context window in items")
		negatives  = flag.Int("negatives", 5, "negative samples per pair")
		epochs     = flag.Int("epochs", 2, "training epochs")
		lr         = flag.Float64("lr", 0.025, "initial learning rate")
		workers    = flag.Int("workers", 0, "simulated distributed workers (0 = local Hogwild training)")
		transport  = flag.String("transport", "chan", "distributed transport: chan (in-process) or tcp (loopback sockets); needs -workers")
		w2vOut     = flag.String("w2v", "", "optionally also export input vectors in word2vec text format")
		warmStart  = flag.String("warm-start", "", "warm-start from an existing model (daily incremental update)")
		seed       = flag.Uint64("seed", 0, "override corpus seed (0 = config default)")
		ckptDir    = flag.String("checkpoint-dir", "", "directory for crash-recovery snapshots (empty = no checkpointing)")
		ckptEvery  = flag.Uint64("checkpoint-every", 1_000_000, "snapshot roughly every N trained pairs")
		resume     = flag.Bool("resume", false, "resume from the snapshot in -checkpoint-dir if one exists")
		recovery   = flag.Bool("recovery", false, "self-heal the distributed run: resurrect dead workers from their scan cursor, then hand their partition to a survivor")
		maxRestart = flag.Int("max-restarts", 0, "resurrections per worker before partition takeover (0 = default budget, negative = takeover immediately); needs -recovery")
		showProg   = flag.Bool("metrics", false, "print periodic training progress lines (pairs/sec, tokens/sec, LR, ETA)")
		progEvery  = flag.Duration("metrics-every", 2*time.Second, "progress reporting interval for -metrics")
		pprofAddr  = flag.String("pprof-addr", "", "expose net/http/pprof and /metrics on this sidecar address (e.g. localhost:6060)")

		stream       = flag.Bool("stream", false, "streaming mode: ingest a live session stream and publish snapshot generations instead of batch epochs")
		streamTotal  = flag.Int("stream-sessions", 20000, "streaming: sessions to ingest (0 = endless, until SIGINT/SIGTERM)")
		publishEvery = flag.Int("publish-every", 2000, "streaming: publish a snapshot generation every N ingested sessions")
		reserveItems = flag.Int("reserve-items", 0, "streaming: not-yet-launched items appended to the catalog, launching over time")
		launchEvery  = flag.Int("launch-every", 0, "streaming: launch one reserved item every N sessions (0 with -reserve-items = every session)")
		driftEvery   = flag.Int("drift-every", 0, "streaming: advance popularity drift every N sessions (0 = no drift)")
		vocabBudget  = flag.Int("vocab-budget", 0, "streaming: admitted-vocabulary budget in embedding rows (0 = full universe dictionary)")
		admitMin     = flag.Int("admit-min-count", 1, "streaming: estimated count a token needs before earning a row")
		streamRate   = flag.Float64("stream-rate", 0, "streaming: throttle ingest to N sessions/sec (0 = unthrottled)")
		serveAddr    = flag.String("serve", "", "streaming: serve the latest snapshot over HTTP on this address, hot-swapped on every publish")
	)
	flag.Parse()

	reg := metrics.NewRegistry()
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof + metrics sidecar on http://%s/debug/pprof/ and /metrics", *pprofAddr)
			// Same header deadline as the hardened serving port; the long
			// write window is for pprof profile/trace streams, which hold
			// the response open for their -seconds argument (30s default).
			sidecar := &http.Server{
				Addr:              *pprofAddr,
				Handler:           metrics.DebugMux(reg),
				ReadHeaderTimeout: 5 * time.Second,
				ReadTimeout:       10 * time.Second,
				WriteTimeout:      2 * time.Minute,
				IdleTimeout:       2 * time.Minute,
			}
			log.Fatal(sidecar.ListenAndServe())
		}()
	}

	cfg, err := experiments.CorpusByName(*corpusName)
	if err != nil {
		log.Fatal(err)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	v, err := sisg.VariantByName(*variant)
	if err != nil {
		log.Fatal(err)
	}

	if *stream {
		runStream(cfg, v, reg, streamParams{
			total:        *streamTotal,
			publishEvery: *publishEvery,
			reserveItems: *reserveItems,
			launchEvery:  *launchEvery,
			driftEvery:   *driftEvery,
			vocabBudget:  *vocabBudget,
			admitMin:     *admitMin,
			rate:         *streamRate,
			serve:        *serveAddr,
			dim:          *dim,
			window:       *window,
			negatives:    *negatives,
			lr:           *lr,
		})
		return
	}

	log.Printf("generating %s ...", cfg.Name)
	ds, err := corpus.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	train := ds.Sessions
	if *sessions != "" {
		f, err := os.Open(*sessions)
		if err != nil {
			log.Fatal(err)
		}
		train, err = seqio.ReadBinary(f, ds.Dict.NumItems)
		_ = f.Close() // read-only file; a short read surfaces through the ReadBinary error
		if err != nil {
			log.Fatalf("reading %s: %v", *sessions, err)
		}
		log.Printf("loaded %d sessions from %s", len(train), *sessions)
	}

	opt := sgns.Defaults()
	opt.Dim = *dim
	opt.Window = *window
	opt.Negatives = *negatives
	opt.Epochs = *epochs
	opt.LR = float32(*lr)
	opt.Seed = cfg.Seed
	opt.CheckpointDir = *ckptDir
	opt.CheckpointEvery = *ckptEvery
	opt.Resume = *resume
	if *resume && *ckptDir == "" {
		log.Fatal("-resume needs -checkpoint-dir")
	}
	if *showProg {
		opt.Progress = logProgress
		opt.ProgressEvery = *progEvery
	}

	start := time.Now()
	var model *sisg.Model
	switch {
	case *warmStart != "":
		f, err := os.Open(*warmStart)
		if err != nil {
			log.Fatal(err)
		}
		prev, err := emb.Load(f)
		_ = f.Close() // read-only file; a short read surfaces through the Load error
		if err != nil {
			log.Fatalf("loading %s: %v", *warmStart, err)
		}
		seqs := sisg.Enrich(ds.Dict, train, v)
		ropt := sisg.TrainOptions(opt, v, opt.Window)
		st, err := sgns.Resume(prev, ds.Dict.Dict, seqs, ropt)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("warm-started from %s: %d incremental pairs", *warmStart, st.Pairs)
		model = &sisg.Model{Variant: v, Dict: ds.Dict, Emb: prev, Stats: st}
	case *workers > 0:
		log.Printf("distributed training: %d workers, HBGP + ATNS, %s transport", *workers, *transport)
		seqs := sisg.Enrich(ds.Dict, train, v)
		part, _, err := dist.PartitionForDataset(ds, train, *workers)
		if err != nil {
			log.Fatal(err)
		}
		dopt := dist.DefaultOptions(*workers)
		dopt.Options = sisg.TrainOptions(opt, v, opt.Window)
		// TrainOptions replaced the embedded sgns.Options wholesale, and with
		// it the Workers field DefaultOptions had set from the flag.
		dopt.Workers = *workers
		dopt.Recovery = *recovery
		dopt.MaxRestarts = *maxRestart
		dopt.Transport = *transport
		dopt.Metrics = reg // live train_* gauges on the -pprof-addr /metrics page
		dmodel, st, err := dist.Train(ds.Dict.Dict, seqs, part, dopt)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("trained %d pairs (%.1f%% remote in %d calls, %.1f pairs per call, workers blocked on them %.1f%% of the run), simulated cluster time %v",
			st.Pairs, 100*st.RemoteFraction(), st.RemoteCalls, st.PairsPerCall(), 100*st.BlockedShare(),
			st.SimElapsed.Round(time.Millisecond))
		if *recovery && len(st.DeadWorkers) > 0 {
			log.Printf("self-healing: %d dead, %d restarts, %d takeovers, %d pairs retrained by replacements",
				len(st.DeadWorkers), st.Restarts, st.Takeovers, st.RecoveredPairs)
		}
		model = &sisg.Model{Variant: v, Dict: ds.Dict, Emb: dmodel}
	default:
		model, err = sisg.Train(ds.Dict, train, v, opt)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("trained %d pairs at %.0f tokens/s (%d workers, idle at the barrier %.1f%% of the run)",
			model.Stats.Pairs, model.Stats.TokensPerSec(), model.Stats.WorkersUsed, 100*model.Stats.IdleShare())
	}
	log.Printf("training took %v", time.Since(start).Round(time.Millisecond))

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	err = model.Emb.Save(f)
	if err2 := f.Close(); err == nil {
		err = err2
	}
	if err != nil {
		log.Fatalf("writing %s: %v", *out, err)
	}
	log.Printf("wrote %d×%d model (in+out) to %s", model.Emb.Vocab(), model.Emb.Dim(), *out)

	if *w2vOut != "" {
		f, err := os.Create(*w2vOut)
		if err != nil {
			log.Fatal(err)
		}
		err = emb.SaveWord2VecText(f, model.Emb, ds.Dict.Dict, true)
		if err2 := f.Close(); err == nil {
			err = err2
		}
		if err != nil {
			log.Fatalf("writing %s: %v", *w2vOut, err)
		}
		log.Printf("exported word2vec text format to %s", *w2vOut)
	}
}

// streamParams carries the -stream flag set (plus the shared training
// hyperparameters) into runStream.
type streamParams struct {
	total        int
	publishEvery int
	reserveItems int
	launchEvery  int
	driftEvery   int
	vocabBudget  int
	admitMin     int
	rate         float64
	serve        string
	dim          int
	window       int
	negatives    int
	lr           float64
}

// runStream is the -stream mode: one ingest loop owns the streamer and the
// live generator, publishing immutable snapshot generations into a
// model.Holder; the optional serving tier reads whatever generation the
// holder currently publishes, so a swap is invisible to in-flight
// requests. The model lives in those in-memory snapshots — -out and -w2v
// are not written in this mode.
func runStream(cfg corpus.Config, v sisg.Variant, reg *metrics.Registry, p streamParams) {
	if p.publishEvery <= 0 {
		log.Fatal("-publish-every must be positive")
	}
	lv, err := corpus.NewLive(corpus.LiveConfig{
		Base:         cfg,
		ReserveItems: p.reserveItems,
		LaunchEvery:  p.launchEvery,
		DriftEvery:   p.driftEvery,
	})
	if err != nil {
		log.Fatal(err)
	}
	budget := p.vocabBudget
	if budget <= 0 {
		budget = lv.Dict.Len()
	}
	lo := sgns.LiveDefaults(budget)
	lo.Dim = p.dim
	lo.Window = p.window
	lo.Negatives = p.negatives
	lo.LR = float32(p.lr)
	lo.Seed = cfg.Seed
	st, err := sisg.NewStreamer(lv.Dict, sisg.StreamConfig{
		Variant: v,
		Admit:   vocab.AdmitConfig{Budget: budget, MinCount: uint32(p.admitMin)},
		Live:    lo,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("streaming %s over %s: %d reserved items, vocab budget %d rows",
		v.Name, cfg.Name, p.reserveItems, budget)

	// The write path's own series, beside the server's on the same registry
	// (-pprof-addr serves them with or without -serve). All set from the
	// ingest goroutine, which owns the streamer.
	var (
		publishSeconds = reg.Histogram("stream_publish_seconds", "Duration of Streamer.Publish (snapshot copy and IVF build), spent on the ingest goroutine.", nil)
		generation     = reg.Gauge("stream_generation", "Latest snapshot generation cut by the streamer.")
		admittedRows   = reg.Gauge("stream_admitted_rows", "Embedding rows admitted to the live vocabulary.")
		sessionsTotal  = reg.Counter("stream_sessions_total", "Sessions ingested by the streamer.")
	)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tick *time.Ticker
	if p.rate > 0 {
		tick = time.NewTicker(time.Duration(float64(time.Second) / p.rate))
		defer tick.Stop()
	}
	ingest := func() bool {
		if tick != nil {
			select {
			case <-ctx.Done():
				return false
			case <-tick.C:
			}
		} else if ctx.Err() != nil {
			return false
		}
		st.Ingest(lv.Next())
		sessionsTotal.Inc()
		admittedRows.Set(float64(st.Admitted()))
		return true
	}

	// Warm-up: one publish interval before generation 1 exists, so the
	// first served snapshot already carries a trained vocabulary.
	warm := p.publishEvery
	if p.total > 0 && p.total < warm {
		warm = p.total
	}
	for i := 0; i < warm; i++ {
		if !ingest() {
			log.Print("interrupted during warm-up, bye")
			return
		}
	}
	publish := func() model.Snapshot {
		start := time.Now()
		snap := st.Publish()
		took := time.Since(start)
		publishSeconds.Observe(took.Seconds())
		generation.Set(float64(snap.Generation()))
		log.Printf("generation %d: %d sessions, %d launched, vocab %d/%d rows, %d items servable, %d Eq.6-seeded, %d pairs, published in %v",
			snap.Generation(), st.Sessions(), len(lv.Launched()),
			snap.VocabSize(), budget, snap.NumItems(), st.SeededItems(), st.Pairs(), took.Round(100*time.Microsecond))
		return snap
	}
	holder := model.NewHolder(publish())

	var s *server.Server
	var srv *http.Server
	errc := make(chan error, 1)
	if p.serve != "" {
		s = server.NewWithHolder(lv.Dataset(), holder, server.Config{Metrics: reg})
		srv = &http.Server{Addr: p.serve, Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
		go func() { errc <- srv.ListenAndServe() }()
		log.Printf("serving latest generation on %s (hot-swapped on every publish)", p.serve)
	}

	interrupted := false
	for n := warm; p.total <= 0 || n < p.total; n++ {
		if !ingest() {
			interrupted = true
			break
		}
		if st.Sessions()%uint64(p.publishEvery) == 0 {
			holder.Publish(publish())
		}
	}
	if !interrupted && st.Sessions()%uint64(p.publishEvery) != 0 {
		holder.Publish(publish())
	}
	log.Printf("ingest window done: %d sessions, %d generations published",
		st.Sessions(), holder.Generation())

	if srv == nil {
		log.Print("no -serve address; snapshots were in-memory only, bye")
		return
	}
	if !interrupted {
		log.Printf("serving generation %d until SIGINT/SIGTERM ...", holder.Generation())
		select {
		case err := <-errc:
			log.Fatal(err)
		case <-ctx.Done():
		}
	}
	stop() // restore default signal behavior: a second signal kills immediately
	s.SetReady(false)
	log.Print("signal received, readiness withdrawn, draining ...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("drain incomplete: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Print("drained, bye")
}
