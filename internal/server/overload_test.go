package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sisg/internal/knn"
	"sisg/internal/model"
	"sisg/internal/rng"
)

// waitFor polls cond until it holds or the deadline passes; failing the
// test on timeout. The conditions below are all monotone ("the budget was
// released", "the counter reached n"), so polling cannot observe a
// transient truth.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A burst of identical /v1/similar requests arriving while the first one
// is still scanning is answered by ONE scan: the followers park on the
// leader's flight and share its result byte-for-byte.
func TestSingleFlightCoalescesIdenticalSeeds(t *testing.T) {
	s, ts := testServer(t)

	var scans atomic.Int64
	started := make(chan struct{}, 4)
	gate := make(chan struct{})
	real := s.retrieve
	s.retrieve = func(ctx context.Context, snap model.Snapshot, item int32, opts knn.Options) ([]knn.Result, error) {
		scans.Add(1)
		started <- struct{}{}
		<-gate
		return real(ctx, snap, item, opts)
	}

	key := flightKey{gen: 1, item: 5, k: 7}
	type reply struct {
		code int
		body string
	}
	get := func(out chan<- reply) {
		code, body := fetchBody(t, ts.URL+"/v1/similar?item=5&k=7")
		out <- reply{code, string(body)}
	}

	leader := make(chan reply, 1)
	go get(leader)
	<-started // the leader holds the scan open

	const followers = 3
	fc := make(chan reply, followers)
	for i := 0; i < followers; i++ {
		go get(fc)
	}
	// Provably parked: the flight reports all three followers waiting.
	waitFor(t, "followers to park on the flight", func() bool {
		return s.flights.waiting(key) == followers
	})
	close(gate)

	want := <-leader
	if want.code != http.StatusOK {
		t.Fatalf("leader: status %d", want.code)
	}
	for i := 0; i < followers; i++ {
		if got := <-fc; got != want {
			t.Fatalf("follower %d: %d %q, leader had %d %q", i, got.code, got.body, want.code, want.body)
		}
	}
	if n := scans.Load(); n != 1 {
		t.Fatalf("%d scans for %d identical requests, want 1", n, followers+1)
	}
	if got := s.Stats().Coalesced; got != followers {
		t.Fatalf("Coalesced = %d, want %d", got, followers)
	}
	if got := s.adm.inflight.Load(); got != 0 {
		t.Fatalf("admitted cost %d still outstanding after all requests finished", got)
	}
}

// A client that disconnects mid-scan must (a) stop the scan, (b) hand its
// admitted cost back, and (c) be counted as canceled — never as a server
// error. The freed budget is proven by a follow-up request succeeding
// against a budget of exactly one scan.
func TestClientDisconnectFreesAdmissionBudget(t *testing.T) {
	s, ts := testServer(t)
	s.adm = &admission{budget: 1} // room for exactly one scan

	started := make(chan struct{}, 1)
	var blocking atomic.Bool
	blocking.Store(true)
	real := s.retrieve
	s.retrieve = func(ctx context.Context, snap model.Snapshot, item int32, opts knn.Options) ([]knn.Result, error) {
		if !blocking.Load() {
			return real(ctx, snap, item, opts)
		}
		started <- struct{}{}
		// Emulate the engine: park until cancelled, return its sentinel.
		<-ctx.Done()
		return nil, fmt.Errorf("%w: %w", knn.ErrCanceled, ctx.Err())
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/similar?item=1&k=5", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	<-started
	if got := s.adm.inflight.Load(); got != s.adm.budget {
		t.Fatalf("admitted cost %d while scanning, want the full budget %d", got, s.adm.budget)
	}

	cancel() // the client goes away mid-scan
	<-done
	waitFor(t, "the cancelled scan to release its budget", func() bool {
		return s.adm.inflight.Load() == 0
	})
	waitFor(t, "the cancellation to be counted", func() bool {
		return s.Stats().Canceled == 1
	})

	// The budget really is free again: a fresh request fits and succeeds.
	blocking.Store(false)
	code, body := fetchBody(t, ts.URL+"/v1/similar?item=1&k=5")
	if code != http.StatusOK {
		t.Fatalf("request after disconnect: %d %s", code, body)
	}
	if st := s.Stats(); st.Panics != 0 || st.Shed != 0 {
		t.Fatalf("disconnect was misclassified: %+v", st)
	}
}

// When a coalesced flight's LEADER disconnects, its followers are handed
// the cancellation — but a follower whose own client is still there must
// retry as the new leader and serve a real answer, not propagate someone
// else's hangup.
func TestFollowerSurvivesLeaderCancellation(t *testing.T) {
	s, ts := testServer(t)

	var calls atomic.Int64
	started := make(chan struct{}, 2)
	real := s.retrieve
	s.retrieve = func(ctx context.Context, snap model.Snapshot, item int32, opts knn.Options) ([]knn.Result, error) {
		if calls.Add(1) == 1 {
			started <- struct{}{}
			<-ctx.Done() // first scan: park until the leader's client hangs up
			return nil, fmt.Errorf("%w: %w", knn.ErrCanceled, ctx.Err())
		}
		return real(ctx, snap, item, opts)
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(leaderCtx, http.MethodGet, ts.URL+"/v1/similar?item=6&k=4", nil)
	if err != nil {
		t.Fatal(err)
	}
	leaderDone := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(leaderDone)
	}()
	<-started

	key := flightKey{gen: 1, item: 6, k: 4}
	followerDone := make(chan struct {
		code int
		body string
	}, 1)
	go func() {
		code, body := fetchBody(t, ts.URL+"/v1/similar?item=6&k=4")
		followerDone <- struct {
			code int
			body string
		}{code, string(body)}
	}()
	waitFor(t, "the follower to park on the flight", func() bool {
		return s.flights.waiting(key) == 1
	})

	cancelLeader()
	<-leaderDone
	got := <-followerDone
	if got.code != http.StatusOK {
		t.Fatalf("follower after leader hangup: %d %s", got.code, got.body)
	}
	var cands []Candidate
	if err := json.Unmarshal([]byte(got.body), &cands); err != nil || len(cands) != 4 {
		t.Fatalf("follower body: %v / %s", err, got.body)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d scans, want 2 (cancelled leader + follower retry)", n)
	}
	if st := s.Stats(); st.Canceled != 1 || st.Similar != 1 {
		t.Fatalf("stats after leader hangup: %+v", st)
	}
}

// Retry-After is derived from load, floored, jittered and clamped: at an
// idle server it sits just above the configured floor, under high measured
// latency it scales up, and it never leaves [1, 30]. The jitter must
// actually spread values — synchronized clients retrying in lockstep would
// re-create the spike that shed them.
func TestRetryAfterDerivation(t *testing.T) {
	s, _ := testServer(t)

	for i := 0; i < 64; i++ {
		v := s.retryAfterSeconds()
		if n, err := strconv.Atoi(v); err != nil || n < 1 || n > 2 {
			t.Fatalf("idle Retry-After %q, want an integer in [1,2]", v)
		}
	}

	// At a floor wide enough for integer seconds to express the half-wide
	// jitter window, the advertised values must actually spread.
	s.cfg.RetryAfter = 10 * time.Second
	distinct := make(map[string]bool)
	for i := 0; i < 64; i++ {
		v := s.retryAfterSeconds()
		n, err := strconv.Atoi(v)
		if err != nil || n < 10 || n > 15 {
			t.Fatalf("floored Retry-After %q, want an integer in [10,15]", v)
		}
		distinct[v] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("no jitter spread: 64 sheds advertised only %v", distinct)
	}
	s.cfg.RetryAfter = time.Second

	// Drive the latency EWMA to ~5s: the advertised back-off follows the
	// measured backlog (~4×EWMA) instead of the static floor, clamped at 30.
	for i := 0; i < 200; i++ {
		s.lat.Observe(5)
	}
	for i := 0; i < 16; i++ {
		n, err := strconv.Atoi(s.retryAfterSeconds())
		if err != nil || n < 20 || n > 30 {
			t.Fatalf("loaded Retry-After %d (err %v), want in [20,30]", n, err)
		}
	}
}

// Admission charges every retrieval one unit, a cheap explicit IVF probe
// as much as an exact flat scan: MaxInFlight retrievals of either kind are
// admitted, the next one of either kind sheds, and a released unit admits
// again.
func TestAdmissionAllowsCheapScansUnderFlatBudget(t *testing.T) {
	s, ts := testServerWith(t, Config{MaxK: 100, MaxInFlight: 2})
	inside := make(chan struct{}, 2)
	release := make(chan struct{})
	real := s.retrieve
	s.retrieve = func(ctx context.Context, snap model.Snapshot, item int32, opts knn.Options) ([]knn.Result, error) {
		if item < 2 {
			inside <- struct{}{}
			<-release
		}
		return real(ctx, snap, item, opts)
	}

	held := make(chan int, 2)
	for _, url := range []string{"/v1/similar?item=0&k=5", "/v1/similar?item=1&k=5&index=ivf"} {
		go func(url string) {
			resp, err := http.Get(ts.URL + url)
			if err != nil {
				held <- 0
				return
			}
			resp.Body.Close()
			held <- resp.StatusCode
		}(url)
	}
	<-inside
	<-inside // a flat scan and an IVF probe fill the limit of two
	for _, url := range []string{"/v1/similar?item=2&k=5&index=ivf", "/v1/similar?item=3&k=5"} {
		if code, body := fetchBody(t, ts.URL+url); code != http.StatusServiceUnavailable {
			t.Fatalf("%s over a full limit: %d %s, want 503", url, code, body)
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-held; code != http.StatusOK {
			t.Fatalf("admitted retrieval answered %d", code)
		}
	}
	waitFor(t, "both units to be released", func() bool { return s.adm.inflight.Load() == 0 })
	if code, body := fetchBody(t, ts.URL+"/v1/similar?item=2&k=5&index=ivf"); code != http.StatusOK {
		t.Fatalf("IVF probe on an idle limit: %d %s", code, body)
	}
	if st := s.Stats(); st.Shed != 2 || st.Similar != 3 {
		t.Fatalf("shed=%d similar=%d, want 2 and 3", st.Shed, st.Similar)
	}
}

// The overload policy end to end, over real HTTP: about a second of
// open-loop arrivals at twice what the server can scan, with head-skewed
// seeds and a few clients that hang up mid-call. Admission must shed,
// single-flight must coalesce, and whatever a client is told must be a
// candidate set or the one error envelope — a tiny corpus scans in
// microseconds, so every scan first waits 8 ms (cancellably, as the
// engine's tiles are) to stand in for a big one: 4 slots ÷ 8 ms = 500
// scans/s.
func TestOverloadOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("a second of real-time load")
	}
	s, ts := testServerWith(t, Config{MaxInFlight: 4})
	real := s.retrieve
	s.retrieve = func(ctx context.Context, snap model.Snapshot, item int32, opts knn.Options) ([]knn.Result, error) {
		scan := time.NewTimer(8 * time.Millisecond)
		defer scan.Stop()
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %w", knn.ErrCanceled, ctx.Err())
		case <-scan.C:
			return real(ctx, snap, item, opts)
		}
	}

	const (
		requests = 1000
		gap      = time.Millisecond // 1000 arrivals/s, 2× the scan capacity
		hangup   = 2 * time.Millisecond
	)
	client := &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: requests},
	}
	defer client.CloseIdleConnections()

	// fire issues one request and returns what is wrong with its answer,
	// "" when nothing is.
	fire := func(url string, hangsUp bool) string {
		ctx := context.Background()
		if hangsUp {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, hangup)
			defer cancel()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err.Error()
		}
		resp, err := client.Do(req)
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			if hangsUp {
				return "" // the client left; there is no answer to check
			}
			return err.Error()
		}
		if resp.StatusCode == http.StatusOK {
			var cands []Candidate
			if err := json.Unmarshal(body, &cands); err != nil || len(cands) == 0 {
				return fmt.Sprintf("200 without a candidate set: %s", body)
			}
			return ""
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Message == "" {
			return fmt.Sprintf("%d without the error envelope: %s", resp.StatusCode, body)
		}
		// Shed and timed out are 503; a follower handed two cancelled
		// leaders in a row is told 499. Nothing else can be said to a
		// well-formed request, and never a 5xx that blames the server.
		want := map[string]int{"overloaded": 503, "timeout": 503, "canceled": statusClientClosedRequest}
		if resp.StatusCode != want[env.Error.Code] {
			return fmt.Sprintf("status %d with error code %q: %s", resp.StatusCode, env.Error.Code, body)
		}
		return ""
	}

	r := rng.New(42)
	seeds := rng.NewZipf(r.Split(), int(s.ds.Dict.NumItems), 1.1)
	problems := make([]string, requests)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < requests; i++ {
		// A ladder of absolute times: when the generator falls behind it
		// fires at once and catches up, so a slow server never stretches
		// the offered schedule.
		time.Sleep(time.Until(start.Add(time.Duration(i) * gap)))
		url := fmt.Sprintf("%s/v1/similar?item=%d&k=10", ts.URL, seeds.Sample())
		hangsUp := r.Float64() < 0.05
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			problems[i] = fire(url, hangsUp)
		}(i)
	}
	wg.Wait()

	for i, p := range problems {
		if p != "" {
			t.Errorf("request %d: %s", i, p)
		}
	}
	st := s.Stats()
	if st.Similar < 1 || st.Shed < 1 || st.Coalesced < 1 {
		t.Errorf("at 2× overload served=%d shed=%d coalesced=%d, want all three engaged", st.Similar, st.Shed, st.Coalesced)
	}
	if st.Panics != 0 {
		t.Errorf("%d handler panics", st.Panics)
	}
	// A hung-up client's handler may still be unwinding when its Do returns.
	waitFor(t, "every admitted scan to hand its cost back", func() bool {
		return s.adm.inflight.Load() == 0
	})
}

// Overload and hot-swap compose: TestOverloadOverHTTP's open-loop 2× load
// (Zipf seeds, 5 % hang-ups, cancellable 8 ms scans) runs while a
// publisher swaps swapSnapshot generations through the holder for the
// whole run. Every 200 must name a published generation and carry only
// that generation's scores, nothing may blame the server, shedding and
// coalescing must both engage, and afterwards the admitted count, the
// pinned readers and the live generations must drain to 0, 0 and 1.
func TestOverloadAcrossPublishes(t *testing.T) {
	if testing.Short() {
		t.Skip("a second of real-time load")
	}
	const (
		items    = 64
		dim      = 8
		requests = 1000
		gap      = time.Millisecond // 1000 arrivals/s, 2× the scan capacity
		hangup   = 2 * time.Millisecond
	)
	ds := testDataset(t)
	holder := model.NewHolder(newSwapSnapshot(1, items, dim))
	s := NewWithHolder(ds, holder, Config{MaxK: 100, MaxInFlight: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	real := s.retrieve
	s.retrieve = func(ctx context.Context, snap model.Snapshot, item int32, opts knn.Options) ([]knn.Result, error) {
		scan := time.NewTimer(8 * time.Millisecond)
		defer scan.Stop()
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %w", knn.ErrCanceled, ctx.Err())
		case <-scan.C:
			return real(ctx, snap, item, opts)
		}
	}

	var published atomic.Uint64
	published.Store(1)
	stop := make(chan struct{})
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for g := uint64(2); ; g++ {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			holder.Publish(newSwapSnapshot(g, items, dim))
			published.Store(g)
		}
	}()

	client := &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: requests},
	}
	defer client.CloseIdleConnections()

	// fire issues one request and returns what is wrong with its answer,
	// "" when nothing is, and the generation a 200 was served from.
	fire := func(url string, hangsUp bool) (string, uint64) {
		ctx := context.Background()
		if hangsUp {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, hangup)
			defer cancel()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err.Error(), 0
		}
		resp, err := client.Do(req)
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			if hangsUp {
				return "", 0
			}
			return err.Error(), 0
		}
		if resp.StatusCode == http.StatusOK {
			gen, err := strconv.ParseUint(resp.Header.Get("X-Model-Generation"), 10, 64)
			if err != nil || gen < 1 || gen > published.Load() {
				return fmt.Sprintf("200 from unpublished generation %q", resp.Header.Get("X-Model-Generation")), 0
			}
			var cands []Candidate
			if err := json.Unmarshal(body, &cands); err != nil || len(cands) == 0 {
				return fmt.Sprintf("200 without a candidate set: %s", body), 0
			}
			for _, c := range cands {
				if c.Score != float32(gen) {
					return fmt.Sprintf("torn read: generation %d, score %v", gen, c.Score), 0
				}
			}
			return "", gen
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Message == "" {
			return fmt.Sprintf("%d without the error envelope: %s", resp.StatusCode, body), 0
		}
		want := map[string]int{"overloaded": 503, "timeout": 503, "canceled": statusClientClosedRequest}
		if resp.StatusCode != want[env.Error.Code] {
			return fmt.Sprintf("status %d with error code %q: %s", resp.StatusCode, env.Error.Code, body), 0
		}
		return "", 0
	}

	r := rng.New(43)
	seeds := rng.NewZipf(r.Split(), items, 1.1)
	problems := make([]string, requests)
	gens := make([]uint64, requests)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < requests; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * gap)))
		url := fmt.Sprintf("%s/v1/similar?item=%d&k=10", ts.URL, seeds.Sample())
		hangsUp := r.Float64() < 0.05
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			problems[i], gens[i] = fire(url, hangsUp)
		}(i)
	}
	wg.Wait()
	close(stop)
	<-pubDone

	served := map[uint64]bool{}
	for i, p := range problems {
		if p != "" {
			t.Errorf("request %d: %s", i, p)
		}
		if gens[i] != 0 {
			served[gens[i]] = true
		}
	}
	if len(served) < 2 {
		t.Errorf("200s came from %d generation(s); publishes did not land under load", len(served))
	}
	st := s.Stats()
	t.Logf("served=%d shed=%d coalesced=%d across %d generations", st.Similar, st.Shed, st.Coalesced, len(served))
	if st.Shed < 1 || st.Coalesced < 1 || st.Panics != 0 {
		t.Errorf("shed=%d coalesced=%d panics=%d, want shed and coalesced engaged and no panic", st.Shed, st.Coalesced, st.Panics)
	}
	waitFor(t, "every admitted retrieval to be released", func() bool {
		return s.adm.inflight.Load() == 0
	})
	waitFor(t, "the holder to drain to one live generation", func() bool {
		return holder.Readers() == 0 && holder.LiveGenerations() == 1
	})
}
