// Command sisg-server runs the matching-stage similarity service (see
// internal/server): it trains (or loads) a SISG model and serves candidate
// sets over HTTP, covering the paper's three production retrieval paths:
//
//	GET /v1/similar?item=123&k=20          item-to-item candidates (§II)
//	    &index=ivf&nprobe=8&quantized=1    sub-linear ANN retrieval (opt-in)
//	GET /v1/coldstart/item?item=123&k=20   Eq. 6 SI-only inference (§IV-C2)
//	GET /v1/coldstart/user?gender=F&age=2&power=1&k=20
//	                                       user-type averaging (§IV-C1)
//	GET /v1/stats                          serving counters
//	GET /healthz                           liveness
//	GET /readyz                            readiness (503 while loading/draining)
//	GET /metrics                           Prometheus text exposition
//
// Errors on every path share one JSON envelope:
// {"error":{"code":"...","message":"..."}}. With -cache N, repeated
// /v1/similar queries are served from a bounded LRU of result sets.
//
// Overload behavior: retrievals are admitted by predicted scan cost
// against -cost-budget; excess load is shed 503 with a load-derived
// Retry-After, identical in-flight /v1/similar scans are coalesced, and
// under sustained pressure default scans brown out from exact flat to IVF
// (responses then carry "X-Degraded: ivf" until pressure recedes). Clients
// that disconnect mid-scan cancel their scan at the next tile boundary.
//
// The listener binds immediately: while the corpus generates and the model
// trains or loads, /healthz already answers 200 (the process is alive) and
// /readyz answers 503 (do not route traffic yet). During graceful shutdown
// the same split holds — /readyz goes 503 first, then in-flight requests
// drain — so a load balancer always has an honest routing signal.
//
// With -pprof-addr a sidecar listener additionally serves net/http/pprof
// and the same /metrics registry, kept off the production port.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"sisg/internal/corpus"
	"sisg/internal/emb"
	"sisg/internal/experiments"
	"sisg/internal/metrics"
	"sisg/internal/model"
	"sisg/internal/server"
	"sisg/internal/sgns"
	"sisg/internal/sisg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sisg-server: ")
	var (
		corpusName = flag.String("corpus", "quick", "dataset config: Sim25K, Sim100K, quick, tiny")
		modelPath  = flag.String("model", "", "embedding file from sisg-train (empty = train now)")
		variant    = flag.String("variant", "SISG-F-U-D", "model variant")
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		maxK       = flag.Int("maxk", 1000, "largest candidate set a request may ask for")
		seed       = flag.Uint64("seed", 0, "override corpus seed")
		maxInFly   = flag.Int("max-inflight", 256, "admission budget in full-flat-scan units (cheap scans pack many per unit)")
		reqTimeout = flag.Duration("request-timeout", 10*time.Second, "per-request handling deadline (cancels the scan at the next tile)")
		cacheSize  = flag.Int("cache", 0, "LRU cache entries for repeated /v1/similar queries (0 = off)")
		costBudget = flag.Int64("cost-budget", 0, "admission budget in rows×dims scan units (0 = max-inflight × one flat scan)")
		brownHigh  = flag.Float64("brownout-high", 0, "admission pressure entering brownout (0 = default 0.75)")
		brownLow   = flag.Float64("brownout-low", 0, "admission pressure leaving brownout (0 = default 0.25)")
		brownLat   = flag.Duration("brownout-latency", 0, "retrieval EWMA latency entering brownout (0 = request-timeout/4)")
		brownHold  = flag.Duration("brownout-hold", 0, "how long an enter/exit condition must persist (0 = default 1s)")
		brownProbe = flag.Int("brownout-nprobe", 0, "IVF probe width for degraded scans (0 = engine default)")
		warmIVF    = flag.Bool("warm-ivf", false, "build the IVF ANN layer before reporting ready (first index=ivf request otherwise pays the k-means build)")
		drain      = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain window on SIGINT/SIGTERM")
		pprofAddr  = flag.String("pprof-addr", "", "expose net/http/pprof and /metrics on this sidecar address (e.g. localhost:6060)")
	)
	flag.Parse()

	reg := metrics.NewRegistry()
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof + metrics sidecar on http://%s/debug/pprof/ and /metrics", *pprofAddr)
			// Same header deadline as the serving port below; the long
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

	// Bind the listener before the (slow) corpus + model bootstrap, behind
	// a swappable handler: liveness is answerable the moment the process is
	// up, readiness flips only when the model can actually serve.
	var handler atomic.Value // http.HandlerFunc — one concrete type for every Store
	handler.Store(bootstrapHandler().ServeHTTP)
	srv := &http.Server{
		Addr: *addr,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(func(http.ResponseWriter, *http.Request))(w, r)
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("listening on %s (not ready: loading)", *addr)

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
	log.Printf("generating %s ...", cfg.Name)
	ds, err := corpus.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	var mdl *sisg.Model
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		m, err := emb.Load(f)
		_ = f.Close() // read-only file; a short read surfaces through the Load error
		if err != nil {
			log.Fatal(err)
		}
		if m.Vocab() != ds.Dict.Len() {
			log.Fatalf("model vocab %d != corpus vocab %d", m.Vocab(), ds.Dict.Len())
		}
		mdl = &sisg.Model{Variant: v, Dict: ds.Dict, Emb: m}
	} else {
		log.Printf("training %s ...", v.Name)
		mdl, err = sisg.Train(ds.Dict, ds.Sessions, v, sgns.Defaults())
		if err != nil {
			log.Fatal(err)
		}
	}

	if *warmIVF {
		t0 := time.Now()
		log.Printf("warming IVF layer: %d clusters (%s)",
			mdl.ItemIndex().IVFClusters(), time.Since(t0).Round(time.Millisecond))
	}

	s := server.NewWithHolder(ds, model.NewHolder(sisg.NewModelSnapshot(mdl, 1)), server.Config{
		MaxK:              *maxK,
		MaxInFlight:       *maxInFly,
		RequestTimeout:    *reqTimeout,
		CacheSize:         *cacheSize,
		CostBudget:        *costBudget,
		BrownoutHighWater: *brownHigh,
		BrownoutLowWater:  *brownLow,
		BrownoutLatency:   *brownLat,
		BrownoutHold:      *brownHold,
		BrownoutNProbe:    *brownProbe,
		Metrics:           reg, // one registry for the serving port and the sidecar
	})
	handler.Store(s.Handler().ServeHTTP)

	// Graceful shutdown: on SIGINT/SIGTERM flip /readyz to 503 (the load
	// balancer stops routing here), then stop accepting connections and
	// drain in-flight requests for up to -drain-timeout before exiting, so
	// a rolling restart never truncates candidate sets mid-response.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("serving %s model for %s on %s (ready)", v.Name, cfg.Name, *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal behavior: a second signal kills immediately
		s.SetReady(false)
		log.Printf("signal received, readiness withdrawn, draining for up to %s ...", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Fatalf("drain incomplete: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		log.Print("drained, bye")
	}
}

// bootstrapHandler answers for the window between bind and model-ready:
// alive but not ready, and nothing else is routable yet.
func bootstrapHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "loading"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "loading"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "server is loading its model, not ready", http.StatusServiceUnavailable)
	})
	return mux
}
