// Package server implements the matching-stage HTTP service: the
// production surface that hands candidate sets to the ranking stage. It
// covers the paper's three retrieval paths — item-to-item similarity (§II),
// cold-start items via Eq. 6 (§IV-C2) and cold-start users via user-type
// averaging (§IV-C1) — plus liveness (/healthz), readiness (/readyz,
// 503 while warming up or draining), serving statistics and a Prometheus
// /metrics exposition.
//
// Cold-start endpoints accept both GET (catalog items / demographic query
// parameters) and POST (a JSON body naming raw SI tokens or demographics),
// because the production cold-start case is precisely an item or user the
// catalog does not know yet.
//
// The retrieval API is versioned: /v1/similar, /v1/coldstart/item,
// /v1/coldstart/user and /v1/stats. Every error — bad input, shed load,
// timeout, recovered panic — is answered with one JSON shape:
// {"error":{"code":"...","message":"..."}}.
//
// The package is the testable core behind cmd/sisg-server.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"sisg/internal/corpus"
	"sisg/internal/knn"
	"sisg/internal/metrics"
	"sisg/internal/model"
)

// Candidate is one entry of a served candidate set, carrying enough catalog
// metadata for a downstream ranker.
type Candidate struct {
	Item  int32   `json:"item"`
	Score float32 `json:"score"`
	Leaf  int32   `json:"leaf"`
	Brand int32   `json:"brand"`
	Tier  int8    `json:"tier"`
}

// Stats are cumulative serving counters, exposed at /v1/stats (JSON) and, in
// richer form, at /metrics (Prometheus text format).
type Stats struct {
	Similar      uint64 `json:"similar"`
	ColdItem     uint64 `json:"cold_item"`
	ColdUser     uint64 `json:"cold_user"`
	ClientErrors uint64 `json:"client_errors"`
	Panics       uint64 `json:"panics"` // requests answered 500 after a recovered handler panic
	Shed         uint64 `json:"shed"`   // requests answered 503 by the admission controller
	// Coalesced counts requests answered by sharing another identical
	// in-flight retrieval (single-flight followers).
	Coalesced uint64 `json:"coalesced"`
	// Canceled counts retrievals abandoned because the client went away;
	// they are answered 499, never counted as server errors.
	Canceled uint64 `json:"canceled"`
	// ModelGeneration is the generation of the snapshot currently being
	// handed to new requests; SnapshotAgeSeconds is how long ago it was
	// published and VocabSize how many tokens it embeds. Under streaming
	// training the generation climbs with every publish; a batch server
	// reports generation 1 forever.
	ModelGeneration    uint64  `json:"model_generation"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	VocabSize          int     `json:"vocab_size"`
	// Degraded reports whether /v1/similar is currently in brownout
	// (default scans downgraded from exact flat to IVF).
	Degraded bool `json:"degraded"`
	// BrownoutEntered/Exited count brownout transitions in each direction.
	BrownoutEntered uint64 `json:"brownout_entered"`
	BrownoutExited  uint64 `json:"brownout_exited"`
}

// Config tunes the hardening envelope around the handlers. The zero value
// gets production-safe defaults for every field.
type Config struct {
	// MaxK bounds the candidate-set size a single request may ask for
	// (<=0 means 1000).
	MaxK int
	// MaxInFlight sizes the default admission budget: CostBudget defaults
	// to MaxInFlight concurrent full flat scans' worth of predicted cost
	// (<=0 means 256). Cheap requests (IVF probes, small corpora) pack
	// many-per-scan into the same budget; see CostBudget.
	MaxInFlight int
	// RequestTimeout bounds one request's handling time; a request that
	// exceeds it is answered 503 and its retrieval scan is cancelled at
	// the next tile boundary (<=0 means 10s).
	RequestTimeout time.Duration
	// RetryAfter floors the back-off advertised on shed responses. The
	// advertised value is derived per shed from the latency EWMA and
	// admission pressure, with deterministic per-request jitter, and never
	// falls below this (<=0 means 1s).
	RetryAfter time.Duration
	// CostBudget bounds the total *predicted* retrieval cost (rows×dims
	// scan units, knn.Index.PredictedCost) admitted concurrently; excess
	// is shed with 503 + Retry-After. <=0 derives MaxInFlight × the cost
	// of one full flat scan over the item index.
	CostBudget int64
	// BrownoutNProbe is the IVF probe width degraded /v1/similar scans use
	// under brownout (<=0 means the engine default of about sqrt(nlist)).
	BrownoutNProbe int
	// BrownoutHighWater and BrownoutLowWater are the admission-pressure
	// thresholds (fractions of CostBudget) for entering and leaving
	// brownout; wide hysteresis prevents flapping. <=0 mean 0.75 and 0.25.
	BrownoutHighWater float64
	BrownoutLowWater  float64
	// BrownoutLatency is the retrieval-latency EWMA above which the server
	// counts as hot even at low pressure (<=0 means RequestTimeout/4).
	BrownoutLatency time.Duration
	// BrownoutHold is how long an enter/exit condition must persist before
	// the transition fires (<=0 means 1s).
	BrownoutHold time.Duration
	// Metrics is the registry the server instruments itself on. Nil means
	// a private registry; pass a shared one to co-locate serving and
	// training series in a single /metrics page.
	Metrics *metrics.Registry
	// LatencyBuckets overrides the request-latency histogram bounds
	// (seconds, ascending). Nil means metrics.DefBuckets.
	LatencyBuckets []float64
	// CacheSize bounds the /v1/similar result cache in entries. Production
	// matching traffic is heavily head-skewed, so a modest cache absorbs a
	// large fraction of full-matrix scans. <=0 disables caching.
	CacheSize int
}

func (c Config) withDefaults() Config {
	if c.MaxK <= 0 {
		c.MaxK = 1000
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.BrownoutHighWater <= 0 {
		c.BrownoutHighWater = 0.75
	}
	if c.BrownoutLowWater <= 0 {
		c.BrownoutLowWater = 0.25
	}
	if c.BrownoutLatency <= 0 {
		c.BrownoutLatency = c.RequestTimeout / 4
	}
	if c.BrownoutHold <= 0 {
		c.BrownoutHold = time.Second
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	return c
}

// endpointMetrics is the pre-registered per-endpoint instrument set, so the
// request path never takes the registry lock.
type endpointMetrics struct {
	latency *metrics.Histogram
	codes   map[string]*metrics.Counter // "2xx", "3xx", "4xx", "5xx"
}

// Server serves the current model snapshot over one catalog. Snapshots
// rotate through a model.Holder: every request pins the snapshot it
// arrived at (an atomic acquire, no lock) and uses only that generation
// for its whole lifetime, so a publish mid-request never blocks, never
// tears a response across two models, and retires the displaced
// generation as soon as its last in-flight reader finishes.
type Server struct {
	ds     *corpus.Dataset
	models *model.Holder
	maxK   int
	cfg    Config

	adm     *admission     // cost-based concurrency limiter
	flights [2]flightGroup // single-flight groups: [0] exact, [1] degraded
	brown   *brownout
	lat     *metrics.EWMA // retrieval latency EWMA, seconds
	press   *metrics.EWMA // admission pressure EWMA, 0..~1

	// retrieve is the seam overload tests hook: it defaults to the pinned
	// snapshot's Similar and is only ever replaced inside this package's
	// tests. opts.K carries k.
	retrieve func(ctx context.Context, snap model.Snapshot, item int32, opts knn.Options) ([]knn.Result, error)

	inflightReqs atomic.Int64  // requests currently executing (all endpoints)
	shedSeq      atomic.Uint64 // per-shed sequence feeding Retry-After jitter

	// notReady inverts readiness so the zero value (and every existing
	// constructor call) starts ready. /healthz keeps answering 200 while
	// not ready — the process is alive — but /readyz answers 503, which is
	// what a load balancer keys traffic on during warm-up and drain.
	notReady atomic.Bool

	reg *metrics.Registry
	// Serving counters (registry-backed; Stats() snapshots them).
	similar      *metrics.Counter
	coldItem     *metrics.Counter
	coldUser     *metrics.Counter
	clientErrors *metrics.Counter
	panics       *metrics.Counter
	shed         *metrics.Counter
	coalesced    *metrics.Counter
	canceled     *metrics.Counter
	timeouts     *metrics.Counter
	brownEntered *metrics.Counter
	brownExited  *metrics.Counter

	endpoints map[string]*endpointMetrics

	// cache, when CacheSize > 0, memoizes /v1/similar result sets keyed by
	// (item, k) — scoped to ONE model generation. A publish invalidates
	// the whole cache by construction: the first request pinned to the
	// new generation CAS-installs a fresh LRU, and requests still pinned
	// to an older generation simply bypass caching (they are a dying
	// breed; warming a retired generation's cache is wasted memory).
	cache        atomic.Pointer[genCache]
	cacheHits    *metrics.Counter
	cacheMisses  *metrics.Counter
	scanSeconds  *metrics.Histogram
	cacheSeconds *metrics.Histogram
}

// genCache is one generation's result cache.
type genCache struct {
	gen uint64
	lru *knn.LRU
}

// cacheFor returns the LRU for the given generation, installing a fresh
// one when gen is newer than the cached generation. Requests pinned to an
// older generation than the cache get nil (uncached).
func (s *Server) cacheFor(gen uint64) *knn.LRU {
	if s.cfg.CacheSize <= 0 {
		return nil
	}
	for {
		cur := s.cache.Load()
		if cur != nil {
			if cur.gen == gen {
				return cur.lru
			}
			if cur.gen > gen {
				return nil
			}
		}
		next := &genCache{gen: gen, lru: knn.NewLRU(s.cfg.CacheSize)}
		if s.cache.CompareAndSwap(cur, next) {
			return next.lru
		}
	}
}

// knownPaths are the routes instrumented with their own label value;
// anything else shares the "other" series so label cardinality stays
// bounded no matter what clients probe.
var knownPaths = []string{
	"/v1/similar", "/v1/coldstart/item", "/v1/coldstart/user", "/v1/stats",
	"/healthz", "/readyz", "/metrics",
}

// NewWithHolder returns a server reading whatever snapshot the holder
// currently publishes. The caller keeps the holder and feeds it new
// generations (model.Holder.Publish); swaps are invisible to in-flight
// requests. A batch model is a holder with one generation that never
// rotates.
func NewWithHolder(ds *corpus.Dataset, models *model.Holder, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	s := &Server{
		ds: ds, models: models, maxK: cfg.MaxK, cfg: cfg,
		reg: reg,

		similar:      reg.Counter("serve_candidates_total", "candidate sets served, by retrieval path", metrics.L("path", "/similar")),
		coldItem:     reg.Counter("serve_candidates_total", "candidate sets served, by retrieval path", metrics.L("path", "/coldstart/item")),
		coldUser:     reg.Counter("serve_candidates_total", "candidate sets served, by retrieval path", metrics.L("path", "/coldstart/user")),
		clientErrors: reg.Counter("http_client_errors_total", "requests rejected 400 for malformed input"),
		panics:       reg.Counter("http_panics_total", "requests answered 500 after a recovered handler panic"),
		shed:         reg.Counter("http_shed_total", "requests answered 503 by the admission controller"),
		coalesced:    reg.Counter("retrieval_coalesced_total", "requests answered by sharing an identical in-flight retrieval"),
		canceled:     reg.Counter("http_canceled_total", "retrievals abandoned because the client went away (answered 499)"),
		timeouts:     reg.Counter("http_request_timeouts_total", "retrievals cancelled by the per-request deadline"),
		brownEntered: reg.Counter("brownout_transitions_total", "brownout state transitions, by direction", metrics.L("to", "degraded")),
		brownExited:  reg.Counter("brownout_transitions_total", "brownout state transitions, by direction", metrics.L("to", "exact")),

		endpoints: make(map[string]*endpointMetrics, len(knownPaths)+1),
	}
	budget := cfg.CostBudget
	if budget <= 0 {
		snap, release := models.Acquire()
		flat := flatCost(snap)
		release()
		if budget = int64(cfg.MaxInFlight) * flat; budget < flat {
			budget = flat // overflow or degenerate config: one scan at a time
		}
	}
	s.adm = &admission{budget: budget}
	s.lat = metrics.NewEWMA(0.1)
	s.press = metrics.NewEWMA(0.1)
	s.brown = &brownout{
		highWater: cfg.BrownoutHighWater,
		lowWater:  cfg.BrownoutLowWater,
		latHigh:   cfg.BrownoutLatency.Seconds(),
		hold:      cfg.BrownoutHold,
		entered:   s.brownEntered,
		exited:    s.brownExited,
	}
	s.retrieve = func(ctx context.Context, snap model.Snapshot, item int32, opts knn.Options) ([]knn.Result, error) {
		rs, err := snap.Similar(ctx, []int32{item}, opts)
		if err != nil {
			return nil, err
		}
		return rs[0], nil
	}
	for _, p := range append(append([]string(nil), knownPaths...), "other") {
		em := &endpointMetrics{
			latency: reg.Histogram("http_request_duration_seconds", "request handling latency", cfg.LatencyBuckets, metrics.L("path", p)),
			codes:   make(map[string]*metrics.Counter, 4),
		}
		for _, cls := range []string{"2xx", "3xx", "4xx", "5xx"} {
			em.codes[cls] = reg.Counter("http_requests_total", "requests handled, by path and status class",
				metrics.L("path", p), metrics.L("code", cls))
		}
		s.endpoints[p] = em
	}
	reg.GaugeFunc("http_inflight", "requests currently executing", func() float64 {
		return float64(s.inflightReqs.Load())
	})
	reg.GaugeFunc("model_generation", "generation of the snapshot handed to new requests", func() float64 {
		return float64(s.models.Generation())
	})
	reg.GaugeFunc("model_swaps_total", "snapshot publishes since start (monotone)", func() float64 {
		return float64(s.models.Swaps())
	})
	reg.GaugeFunc("model_snapshot_readers", "requests currently pinning a snapshot", func() float64 {
		return float64(s.models.Readers())
	})
	reg.GaugeFunc("admission_cost_inflight", "predicted retrieval cost currently admitted (rows×dims units)", func() float64 {
		return float64(s.adm.inflight.Load())
	})
	reg.GaugeFunc("admission_cost_budget", "admission budget (rows×dims units)", func() float64 {
		return float64(s.adm.budget)
	})
	reg.GaugeFunc("admission_pressure", "EWMA of admitted cost / budget — the signal driving brownout", func() float64 {
		return s.press.Value()
	})
	reg.GaugeFunc("serving_degraded", "1 while /v1/similar is in brownout (default scans downgraded to IVF)", func() float64 {
		if s.brown.active() {
			return 1
		}
		return 0
	})
	s.scanSeconds = reg.Histogram("retrieval_seconds", "similar-item retrieval latency, by source", cfg.LatencyBuckets, metrics.L("source", "scan"))
	s.cacheSeconds = reg.Histogram("retrieval_seconds", "similar-item retrieval latency, by source", cfg.LatencyBuckets, metrics.L("source", "cache"))
	if cfg.CacheSize > 0 {
		s.cacheHits = reg.Counter("retrieval_cache_hits_total", "/similar requests answered from the result cache")
		s.cacheMisses = reg.Counter("retrieval_cache_misses_total", "/similar requests that fell through to a full scan")
		reg.GaugeFunc("retrieval_cache_entries", "entries currently held by the /similar result cache", func() float64 {
			if c := s.cache.Load(); c != nil {
				return float64(c.lru.Len())
			}
			return 0
		})
	}
	return s
}

// flatCost is the predicted cost of one full flat scan over a snapshot's
// item index — the admission unit MaxInFlight is denominated in, and the
// cost charged for cold-start retrievals (always exact vector scans).
func flatCost(snap model.Snapshot) int64 {
	c := snap.Index().PredictedCost(knn.Options{K: 1})
	if c < 1 {
		c = 1
	}
	return c
}

// Registry returns the metrics registry the server reports on.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Handler returns the routed HTTP handler wrapped in the hardening chain.
//
// The retrieval API is versioned under /v1/. Operational endpoints
// (/healthz, /readyz, /metrics) stay unversioned — they speak to
// infrastructure, not API clients.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/similar", s.handleSimilar)
	mux.HandleFunc("/v1/coldstart/item", s.handleColdItem)
	mux.HandleFunc("/v1/coldstart/user", s.handleColdUser)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.Handle("/metrics", s.reg.Handler())
	return s.harden(mux)
}

// harden wraps a handler in the protection chain, outermost first: panic
// recovery (a handler bug answers 500 and is counted, instead of killing
// the whole process), per-endpoint instrumentation (so shed, timed-out and
// panicking requests are all measured), and a per-request deadline (one
// stuck request cannot hold a connection forever — and, because the
// deadline rides the request context into the scan, the worker actually
// stops). Load shedding is no longer a uniform middleware: the retrieval
// handlers admit by predicted scan cost (see admission.go), while
// operational endpoints (/healthz, /readyz, /metrics, /v1/stats) stay
// unmetered — an overloaded server must still answer its load balancer.
func (s *Server) harden(h http.Handler) http.Handler {
	return s.withRecovery(s.instrument(http.TimeoutHandler(h, s.cfg.RequestTimeout, timeoutBody)))
}

// timeoutBody is the envelope http.TimeoutHandler writes on 503; it cannot
// call writeError, so the JSON is spelled out.
const timeoutBody = `{"error":{"code":"timeout","message":"request timed out"}}`

// errorEnvelope is the uniform error shape of the API, on every path and
// every failure mode: {"error":{"code":"...","message":"..."}}. code is a
// small stable enum (bad_request, overloaded, timeout, internal) meant for
// programs; message is prose meant for humans.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: errorBody{Code: code, Message: message}})
}

// statusRecorder captures the response status for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// instrument records one latency observation and one status-class count per
// request, labeled by endpoint. It sits INSIDE the recovery wrapper so a
// panicking request is still measured (as a 5xx): the deferred accounting
// runs while the panic unwinds, before withRecovery converts it to a 500.
func (s *Server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		em, ok := s.endpoints[r.URL.Path]
		if !ok {
			em = s.endpoints["other"]
		}
		rec := &statusRecorder{ResponseWriter: w}
		s.inflightReqs.Add(1)
		defer s.inflightReqs.Add(-1)
		start := time.Now()
		finished := false
		defer func() {
			em.latency.ObserveSince(start)
			code := rec.code
			if !finished && code == 0 {
				// Panic in flight before anything was written; the
				// recovery wrapper above will answer 500.
				code = http.StatusInternalServerError
			}
			if code == 0 {
				code = http.StatusOK
			}
			cls := strconv.Itoa(code/100) + "xx"
			if c, ok := em.codes[cls]; ok {
				c.Inc()
			} else {
				em.codes["5xx"].Inc()
			}
		}()
		h.ServeHTTP(rec, r)
		finished = true
	})
}

// withRecovery converts a handler panic into a 500 plus a counter bump.
// http.ErrAbortHandler is re-raised: it is the sanctioned way to abort a
// response, not a bug.
func (s *Server) withRecovery(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				s.panics.Inc()
				writeError(w, http.StatusInternalServerError, "internal", "internal server error")
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// statusClientClosedRequest is the nginx-convention status for "the client
// went away before the response was ready". It never reaches the client
// (there is none), but it keys instrumentation into the 4xx class: a
// cancelled retrieval is the *client's* outcome, not a server error.
const statusClientClosedRequest = 499

// writeShed answers one shed request: 503 overloaded plus a Retry-After
// derived from current load. The shed request's pressure sample was
// already taken at arrival (loadSample before tryAcquire), which is what
// pushes the brownout machine toward degrading — a server shedding at
// full pressure should be migrating its default scans to the cheap index.
func (s *Server) writeShed(w http.ResponseWriter) {
	s.shed.Inc()
	w.Header().Set("Retry-After", s.retryAfterSeconds())
	writeError(w, http.StatusServiceUnavailable, "overloaded", "server overloaded, retry later")
}

// retryAfterSeconds derives the advertised back-off from the latency EWMA
// scaled by admission pressure — roughly "how long until the backlog the
// client would join has drained" — floored at the configured RetryAfter.
// Deterministic per-shed jitter (a split-mix hash of a shed sequence
// number) spreads synchronized clients over a half-wide window so they do
// not retry in lockstep and re-create the spike that shed them.
func (s *Server) retryAfterSeconds() string {
	est := s.lat.Value() * 4 * (1 + s.adm.pressure())
	if floor := s.cfg.RetryAfter.Seconds(); est < floor {
		est = floor
	}
	h := s.shedSeq.Add(1) * 0x9e3779b97f4a7c15
	h ^= h >> 33
	est *= 1 + float64(h%512)/1024 // jitter in [1, 1.5)
	n := int(math.Ceil(est))
	if n < 1 {
		n = 1
	}
	if n > 30 {
		n = 30
	}
	return strconv.Itoa(n)
}

// finishRetrieval records one completed (or failed) retrieval: latency
// into the EWMA (which must be measured at completion), a brownout
// evaluation against the current smoothed load, then the budget release.
// It does NOT sample pressure: a completion-time sample always includes
// the finishing request itself, so with a budget of one flat scan every
// sample would read 1.0 even on a server that sits idle between
// requests (seen in the wild as brownout flapping at trivial load).
func (s *Server) finishRetrieval(start time.Time, cost int64) {
	s.lat.Observe(time.Since(start).Seconds())
	s.brown.observe(time.Now(), s.press.Value(), s.lat.Value())
	s.adm.release(cost)
}

// loadSample records the admission pressure one arriving retrieval finds
// (taken BEFORE it acquires budget) and re-evaluates the brownout
// machine. Sampling at arrival matters twice over: Poisson arrivals see
// time averages (an idle server's arrivals observe 0, so the EWMA decays
// when load is light), and the raw instantaneous ratio is bimodal under
// saturation — admission admits scans in waves, and wave-tail samples
// read near-empty even while the server is saturated — so the brownout
// sees the EWMA, never the raw sample.
func (s *Server) loadSample() {
	s.press.Observe(s.adm.pressure())
	s.brown.observe(time.Now(), s.press.Value(), s.lat.Value())
}

// retrievalError maps a failed retrieval onto the error envelope:
// admission shed → 503 overloaded; client gone → 499 canceled (its own
// counter, never a 5xx — cancelled work is not a server error); deadline →
// 503 timeout (normally already written by the TimeoutHandler; the write
// here lands on the discarded inner recorder); anything else → 500.
func (s *Server) retrievalError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, model.ErrNotServable):
		// The pinned snapshot does not embed this item (yet): a client
		// outcome, not a server fault — streaming admission may serve it
		// one generation later.
		s.clientErrors.Inc()
		writeError(w, http.StatusNotFound, "not_servable", "item not servable by the current model generation")
	case errors.Is(err, errShed):
		s.writeShed(w)
	case errors.Is(err, context.Canceled):
		s.canceled.Inc()
		writeError(w, statusClientClosedRequest, "canceled", "client closed request")
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		writeError(w, http.StatusServiceUnavailable, "timeout", "request timed out")
	default:
		writeError(w, http.StatusInternalServerError, "internal", "internal server error")
	}
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats {
	snap, release := s.models.Acquire()
	defer release()
	return Stats{
		ModelGeneration:    snap.Generation(),
		SnapshotAgeSeconds: time.Since(snap.PublishedAt()).Seconds(),
		VocabSize:          snap.VocabSize(),

		Similar:         s.similar.Value(),
		ColdItem:        s.coldItem.Value(),
		ColdUser:        s.coldUser.Value(),
		ClientErrors:    s.clientErrors.Value(),
		Panics:          s.panics.Value(),
		Shed:            s.shed.Value(),
		Coalesced:       s.coalesced.Value(),
		Canceled:        s.canceled.Value(),
		Degraded:        s.brown.active(),
		BrownoutEntered: s.brownEntered.Value(),
		BrownoutExited:  s.brownExited.Value(),
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap, release := s.models.Acquire()
	defer release()
	writeJSON(w, map[string]interface{}{
		"status":     "ok",
		"variant":    snap.Variant(),
		"items":      snap.NumItems(),
		"vocab":      snap.VocabSize(),
		"dim":        snap.Dim(),
		"generation": snap.Generation(),
	})
}

// SetReady flips the /readyz answer. A server starts ready; flip it false
// before http.Server.Shutdown so the load balancer stops routing new
// traffic here while in-flight requests drain (liveness stays 200
// throughout — killing a draining pod would truncate those requests).
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports the current /readyz answer.
func (s *Server) Ready() bool { return !s.notReady.Load() }

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	// Pin the current snapshot for the whole request: a publish landing
	// mid-request swaps the holder without blocking, and this request
	// keeps reading the generation it arrived at.
	snap, release := s.models.Acquire()
	defer release()
	w.Header().Set("X-Model-Generation", strconv.FormatUint(snap.Generation(), 10))

	item, k, ok := s.itemAndK(w, r)
	if !ok {
		return
	}
	opts, ok := s.annOptions(w, r, k)
	if !ok {
		return
	}
	start := time.Now()

	// An explicit strategy (index=... in the query) bypasses cache,
	// brownout and coalescing — the client asked for one specific scan —
	// but is still admitted by cost and cancelled with the request.
	if opts.Index != "" {
		recs, err := s.admittedRetrieve(r.Context(), snap, item, opts)
		if err != nil {
			s.retrievalError(w, err)
			return
		}
		s.similar.Inc()
		s.scanSeconds.ObserveSince(start)
		s.writeCandidates(w, recs)
		return
	}

	// Default path: cache, then single-flight in front of the scan. Both
	// are scoped to the pinned generation — the cache by construction
	// (cacheFor), the flight by key — so two generations' answers can
	// never coalesce or shadow one another across a swap. Only the exact
	// default scan is cached: ANN answers depend on index/nprobe/quantized,
	// and folding those into the key would let approximate results shadow
	// exact ones (and vice versa). Cached results are served even during
	// brownout — they are exact and cost nothing, which is the whole point
	// of keeping them.
	key := flightKey{gen: snap.Generation(), item: item, k: int32(k)}
	cache := s.cacheFor(snap.Generation())
	if cache != nil {
		if recs, hit := cache.Get(key.cacheKey()); hit {
			s.cacheHits.Inc()
			s.similar.Inc()
			s.cacheSeconds.ObserveSince(start)
			s.writeCandidates(w, recs)
			return
		}
	}

	// Brownout is decided once per request; degraded and exact flights
	// coalesce in separate groups so the two answer shapes never mix.
	degraded := s.brown.active()
	scanOpts := opts
	if degraded {
		scanOpts = knn.Options{K: k, Index: knn.IndexIVF, NProbe: s.cfg.BrownoutNProbe}
	}
	group := &s.flights[0]
	if degraded {
		group = &s.flights[1]
	}
	var (
		recs   []knn.Result
		shared bool
		err    error
	)
	for attempt := 0; ; attempt++ {
		recs, shared, err = group.do(r.Context(), key, func() ([]knn.Result, error) {
			if cache != nil {
				s.cacheMisses.Inc()
			}
			return s.admittedRetrieve(r.Context(), snap, item, scanOpts)
		})
		// A follower handed its leader's cancellation while this client is
		// still here retries once as the new leader: the leader's client
		// going away must not fail the whole coalesced cohort.
		if attempt == 0 && shared && err != nil && errors.Is(err, knn.ErrCanceled) && r.Context().Err() == nil {
			continue
		}
		break
	}
	if err != nil {
		s.retrievalError(w, err)
		return
	}
	if shared {
		s.coalesced.Inc()
	}
	s.similar.Inc()
	if degraded {
		// The accuracy contract changed; say so in-band.
		w.Header().Set("X-Degraded", "ivf")
	} else if cache != nil && !shared {
		// Only the leader fills the cache, and only with exact results.
		cache.Put(key.cacheKey(), recs)
	}
	s.scanSeconds.ObserveSince(start)
	s.writeCandidates(w, recs)
}

// admittedRetrieve runs one retrieval under the admission controller: the
// predicted cost of the scan is acquired (or the call sheds with errShed),
// the scan runs on the request context against the pinned snapshot, and
// completion feeds the latency EWMA and brownout machine before the cost
// is released. opts.K carries the candidate-set size.
func (s *Server) admittedRetrieve(ctx context.Context, snap model.Snapshot, item int32, opts knn.Options) ([]knn.Result, error) {
	cost := snap.Index().PredictedCost(opts)
	if cost < 1 {
		cost = 1
	}
	s.loadSample()
	if !s.adm.tryAcquire(cost) {
		return nil, errShed
	}
	start := time.Now()
	defer s.finishRetrieval(start, cost)
	return s.retrieve(ctx, snap, item, opts)
}

// annOptions parses the retrieval-strategy query parameters (index,
// nprobe, quantized) into knn.Options and rejects inconsistent
// combinations with the engine's own Validate message. The zero Index
// (parameter absent) keeps the cached exact-scan fast path.
func (s *Server) annOptions(w http.ResponseWriter, r *http.Request, k int) (knn.Options, bool) {
	var opts knn.Options
	opts.Index = r.URL.Query().Get("index")
	nprobe, ok := intParam(r, "nprobe", 0)
	if !ok {
		s.clientError(w, "nprobe is not an integer")
		return opts, false
	}
	opts.NProbe = nprobe
	if v := r.URL.Query().Get("quantized"); v != "" {
		q, err := strconv.ParseBool(v)
		if err != nil {
			s.clientError(w, "quantized is not a boolean")
			return opts, false
		}
		opts.Quantized = q
	}
	opts.K = k // so Validate sees the full picture
	if err := opts.Validate(); err != nil {
		s.clientError(w, "%s", err)
		return opts, false
	}
	return opts, true
}

// coldItemRequest is the POST body of /v1/coldstart/item: a brand-new item
// known only by its SI token names (Eq. 6 needs nothing else).
type coldItemRequest struct {
	SI []string `json:"si"`
	K  int      `json:"k"`
}

func (s *Server) handleColdItem(w http.ResponseWriter, r *http.Request) {
	snap, release := s.models.Acquire()
	defer release()
	w.Header().Set("X-Model-Generation", strconv.FormatUint(snap.Generation(), 10))
	if r.Method == http.MethodPost {
		var req coldItemRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		k, ok := s.boundK(w, req.K)
		if !ok {
			return
		}
		if len(req.SI) == 0 {
			s.clientError(w, "si must name at least one side-information token")
			return
		}
		qv, err := snap.ColdItemVectorFromNames(req.SI)
		if err != nil {
			s.clientError(w, "%v", err)
			return
		}
		recs, err := s.admittedVectorRetrieve(r.Context(), snap, qv, k, nil)
		if err != nil {
			s.retrievalError(w, err)
			return
		}
		s.coldItem.Inc()
		s.writeCandidates(w, recs)
		return
	}
	item, k, ok := s.itemAndK(w, r)
	if !ok {
		return
	}
	qv, err := snap.ColdItemVector(item)
	if err != nil {
		s.retrievalError(w, err)
		return
	}
	recs, err := s.admittedVectorRetrieve(r.Context(), snap, qv, k, func(id int32) bool { return id == item })
	if err != nil {
		s.retrievalError(w, err)
		return
	}
	s.coldItem.Inc()
	s.writeCandidates(w, recs)
}

// admittedVectorRetrieve is admittedRetrieve for the cold-start paths:
// always an exact vector scan, so always charged one flat-scan cost.
func (s *Server) admittedVectorRetrieve(ctx context.Context, snap model.Snapshot, qv []float32, k int, skip func(int32) bool) ([]knn.Result, error) {
	cost := flatCost(snap)
	s.loadSample()
	if !s.adm.tryAcquire(cost) {
		return nil, errShed
	}
	start := time.Now()
	defer s.finishRetrieval(start, cost)
	return snap.SimilarToVector(ctx, qv, k, skip)
}

// coldUserRequest is the POST body of /v1/coldstart/user. Age and Power are
// pointers so "absent" (match any) is distinguishable from index 0.
type coldUserRequest struct {
	Gender string `json:"gender"`
	Age    *int   `json:"age"`
	Power  *int   `json:"power"`
	K      int    `json:"k"`
}

func (s *Server) handleColdUser(w http.ResponseWriter, r *http.Request) {
	var (
		k, gender, age, power int
		ok                    bool
	)
	if r.Method == http.MethodPost {
		var req coldUserRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		if k, ok = s.boundK(w, req.K); !ok {
			return
		}
		if gender, ok = s.genderIndex(w, req.Gender); !ok {
			return
		}
		age, power = -1, -1
		if req.Age != nil {
			age = *req.Age
		}
		if req.Power != nil {
			power = *req.Power
		}
	} else {
		if k, ok = s.kParam(w, r); !ok {
			return
		}
		if gender, ok = s.genderIndex(w, r.URL.Query().Get("gender")); !ok {
			return
		}
		if age, ok = intParam(r, "age", -1); !ok {
			s.clientError(w, "age is not an integer")
			return
		}
		if power, ok = intParam(r, "power", -1); !ok {
			s.clientError(w, "power is not an integer")
			return
		}
	}
	types := s.ds.Pop.TypesMatching(gender, age, power)
	if len(types) == 0 {
		s.clientError(w, "sisg: no matching user types")
		return
	}
	snap, release := s.models.Acquire()
	defer release()
	w.Header().Set("X-Model-Generation", strconv.FormatUint(snap.Generation(), 10))
	cost := flatCost(snap)
	s.loadSample()
	if !s.adm.tryAcquire(cost) {
		s.writeShed(w)
		return
	}
	start := time.Now()
	recs, err := func() ([]knn.Result, error) {
		defer s.finishRetrieval(start, cost)
		return snap.RecommendForColdUser(r.Context(), types, k)
	}()
	if err != nil {
		s.retrievalError(w, err)
		return
	}
	s.coldUser.Inc()
	s.writeCandidates(w, recs)
}

// genderIndex resolves a gender name to its index (-1 for "any" when
// empty); unknown names are a client error.
func (s *Server) genderIndex(w http.ResponseWriter, g string) (int, bool) {
	if g == "" {
		return -1, true
	}
	for i, name := range corpus.Genders {
		if name == g {
			return i, true
		}
	}
	s.clientError(w, "unknown gender %q (want F, M or null)", g)
	return 0, false
}

// maxBodyBytes bounds cold-start POST bodies; a list of SI token names has
// no business being larger.
const maxBodyBytes = 1 << 20

// decodeBody parses a JSON POST body strictly: unknown fields, trailing
// garbage, oversized and unparseable bodies are all client errors.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.clientError(w, "bad request body: %v", err)
		return false
	}
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		s.clientError(w, "bad request body: trailing data after JSON object")
		return false
	}
	return true
}

func (s *Server) itemAndK(w http.ResponseWriter, r *http.Request) (int32, int, bool) {
	item, ok := intParam(r, "item", -1)
	if !ok {
		s.clientError(w, "item is not an integer")
		return 0, 0, false
	}
	if item < 0 || item >= s.ds.Dict.NumItems {
		s.clientError(w, "item out of range [0,%d)", s.ds.Dict.NumItems)
		return 0, 0, false
	}
	k, kok := s.kParam(w, r)
	return int32(item), k, kok
}

// boundK validates a candidate-set size from a POST body: 0 means the
// default (20); anything else must fall in (0, maxK].
func (s *Server) boundK(w http.ResponseWriter, k int) (int, bool) {
	if k == 0 {
		return 20, true
	}
	if k < 0 || k > s.maxK {
		s.clientError(w, "k must be an integer in (0,%d]", s.maxK)
		return 0, false
	}
	return k, true
}

func (s *Server) kParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	k, ok := intParam(r, "k", 20)
	if !ok || k <= 0 || k > s.maxK {
		s.clientError(w, "k must be an integer in (0,%d]", s.maxK)
		return 0, false
	}
	return k, true
}

func (s *Server) writeCandidates(w http.ResponseWriter, recs []knn.Result) {
	out := make([]Candidate, len(recs))
	for i, r := range recs {
		it := s.ds.Catalog.Items[r.ID]
		out[i] = Candidate{Item: r.ID, Score: r.Score, Leaf: it.Leaf, Brand: it.Brand, Tier: it.Tier}
	}
	writeJSON(w, out)
}

func (s *Server) clientError(w http.ResponseWriter, format string, args ...interface{}) {
	s.clientErrors.Inc()
	writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf(format, args...))
}

// intParam returns the integer query parameter, the default when absent,
// and ok=false when present but unparseable or overflowing (a client
// error, never a silent fallback).
func intParam(r *http.Request, name string, def int) (int, bool) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	return n, true
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
