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
//
// # Serving under overload
//
// Under load the server sheds requests; it never swaps an exact answer for
// an approximate one. A default /v1/similar request goes cache → single-
// flight → admitted exact scan; a request naming index= (and, for IVF,
// nprobe=) gets exactly that scan, admitted, uncached and uncoalesced. Each layer below
// names the test that proves it.
//
// Deadline propagation. The request context — carrying the per-request
// http.TimeoutHandler deadline (Config.RequestTimeout) and the client's
// disconnect — rides into the knn scan, which checks it at 256-row tile
// boundaries and never inside a tile. An uncancelled scan therefore runs
// the same instructions as one without a context
// (TestUncancelledQueryBitIdenticalToReference), a cancelled one stops
// within a tile per worker (TestQueryCancelMidScanStopsScanning), and a
// timed-out request is answered 503 timeout (TestRequestTimeout). Without
// this, a timed-out request would keep every scan worker busy on an answer
// nobody reads.
//
// Admission is a count. At most Config.MaxInFlight retrievals (similar,
// cold-start item and cold-start user alike) run at once; the next one is
// shed at once with 503 overloaded rather than queued, because queueing
// under overload only converts shed into timeout (TestConcurrencyLimiterSheds).
// Every retrieval costs one unit, an explicit IVF probe as much as a flat
// scan (TestAdmissionAllowsCheapScansUnderFlatBudget): on the served model
// a cold-start scan costs about one flat scan and an IVF probe several, so
// no finer price would be closer to the truth. A unit is released when the
// scan ends or dies, so a client that hangs up frees its share at once
// (TestClientDisconnectFreesAdmissionBudget). Operational endpoints never
// pass through admission: an overloaded server still answers its load
// balancer.
//
// Single-flight. Concurrent identical default requests — same item, same
// k, same pinned model generation — share one scan: the first is the
// leader, the rest wait on its result or their own context, pay no
// admission and count into retrieval_coalesced_total
// (TestSingleFlightCoalescesIdenticalSeeds). Keys carry the generation, so
// no answer crosses a publish. A follower handed its leader's cancellation
// while its own client is still there retries once as the new leader
// (TestFollowerSurvivesLeaderCancellation). The result cache is scoped to
// one generation the same way, and only a leader fills it (TestSimilarCache;
// TestHotSwapServing reads through it across publishes).
//
// Error taxonomy. A shed answers 503 overloaded with a Retry-After derived
// from the retrieval-latency EWMA scaled by admission pressure, floored at
// Config.RetryAfter, clamped to [1, 30] s and jittered per shed over a
// half-wide window so shed clients do not return in lockstep
// (TestRetryAfterDerivation). A client that went away is 499 canceled,
// counted in http_canceled_total and instrumented as 4xx, never as a
// server error (TestErrorEnvelope); an item the pinned generation does not
// embed is 404 not_servable (TestColdStartNotServableOnEmptyGeneration).
//
// The proof. TestOverloadOverHTTP offers open-loop arrivals — an absolute
// schedule that never stretches when the server slows — at twice the scan
// capacity over a real loopback listener, with Zipf seeds so single-flight
// has duplicates and 5 % of clients hanging up mid-call. Scans are slowed
// through the unexported retrieve seam (a cancellable 8 ms wait), not a
// production knob. Every answer must be a candidate set or the one
// envelope with a known code, shedding and coalescing must both engage,
// and the admitted count must return to zero. TestOverloadAcrossPublishes
// runs the same load while model generations are published throughout:
// every 200 must carry only the scores of the generation its
// X-Model-Generation names, and the holder must drain to one live
// generation. Both run under -race. What the real read path costs is the
// benchmark's serve_scan and serve_cached workloads.
package server
