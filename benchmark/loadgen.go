package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sisg/internal/corpus"
	"sisg/internal/knn"
	"sisg/internal/rng"
	"sisg/internal/server"
)

type reqKind int

const (
	kindSimilar reqKind = iota
	kindSimilarIVF
	kindColdItem
	kindColdUser
)

type request struct {
	kind reqKind
	item int32  // seed of a similar request
	body string // JSON body of a cold-start POST
}

// outcome is what the client saw of one request.
type outcome struct {
	status int
	gen    uint64 // X-Model-Generation
	bad    string // non-empty: the answer was malformed, or the transport failed
	cands  []server.Candidate
}

func (o outcome) ok() bool { return o.status >= 200 && o.status < 300 && o.bad == "" }

// mix draws requests for one traffic shape from one RNG stream.
type mix struct {
	t        *target
	r        *rng.RNG
	zipf     *rng.Zipf
	coldItem float64
	coldUser float64
	ivf      float64
}

func newMix(t *target, tr traffic, ivf float64, seed uint64) *mix {
	m := &mix{t: t, r: rng.New(seed), coldItem: tr.coldItem, coldUser: tr.coldUser, ivf: ivf}
	if tr.zipf {
		m.zipf = rng.NewZipf(m.r, len(t.hot), zipfExp)
	}
	return m
}

// siTokens draws a catalog item and returns its SI token names.
func (m *mix) siTokens() []string {
	it := &m.t.ds.Catalog.Items[m.r.Intn(len(m.t.ds.Catalog.Items))]
	names := make([]string, 0, corpus.NumSIColumns)
	for col, v := range it.SI() {
		names = append(names, corpus.SIToken(col, v))
	}
	return names
}

func (m *mix) next() request {
	u := m.r.Float64()
	switch {
	case u < m.coldItem:
		// A brand-new item known only by its SI names; any catalog
		// item's SI row is a realistic one.
		body, _ := json.Marshal(map[string]interface{}{"si": m.siTokens(), "k": k}) // strings and an int cannot fail
		return request{kind: kindColdItem, body: string(body)}
	case u < m.coldItem+m.coldUser:
		ut := &m.t.ds.Pop.Types[m.r.Intn(len(m.t.ds.Pop.Types))]
		return request{kind: kindColdUser, body: fmt.Sprintf(`{"gender":%q,"age":%d,"power":%d,"k":%d}`,
			corpus.Genders[ut.Gender], ut.Age, ut.Power, k)}
	}
	var item int32
	if m.zipf != nil {
		item = m.t.hot[m.zipf.Sample()]
	} else {
		item = m.t.seeds[m.r.Intn(len(m.t.seeds))]
	}
	if m.ivf > 0 && m.r.Float64() < m.ivf {
		return request{kind: kindSimilarIVF, item: item}
	}
	return request{kind: kindSimilar, item: item}
}

// audit accumulates what a client checked beyond "it parsed".
type audit struct {
	exactChecked int
	ivfChecked   int
	ivfRecallSum float64
	violated     int      // answers that failed a check; each counts as a failed operation
	violations   []string // the first few, to diagnose
}

func (a *audit) fail(format string, args ...interface{}) {
	a.violated++
	if len(a.violations) < 10 {
		a.violations = append(a.violations, fmt.Sprintf(format, args...))
	}
}

func (a *audit) merge(b audit) {
	a.exactChecked += b.exactChecked
	a.ivfChecked += b.ivfChecked
	a.ivfRecallSum += b.ivfRecallSum
	a.violated += b.violated
	for _, v := range b.violations {
		if len(a.violations) < 10 {
			a.violations = append(a.violations, v)
		}
	}
}

// pendingCheck is an answer set aside for recomputation. Recomputing costs
// a scan, so it waits until the connection is off the clock: the end of
// the phase, or the first answer from a newer generation (while the book
// still holds the old one).
type pendingCheck struct {
	ivf   bool
	item  int32
	gen   uint64
	cands []server.Candidate
}

// client is one keep-alive connection to a target.
type client struct {
	t    *target
	rec  *recorder
	http *http.Client
	sent int
	aud  audit
	todo []pendingCheck
	// lastGen is the newest X-Model-Generation this connection has seen;
	// the server must never hand it an older one afterwards.
	lastGen uint64
}

func newClient(t *target, rec *recorder) *client {
	return &client{t: t, rec: rec, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   clientTimeout,
	}}
}

// finish runs the checks still pending, closes the connection and returns
// what the audit found.
func (c *client) finish() audit {
	c.flush()
	c.http.CloseIdleConnections()
	return c.aud
}

func (c *client) flush() {
	for _, p := range c.todo {
		want := c.reference(p.item, p.gen)
		switch {
		case want == nil:
		case p.ivf:
			c.aud.ivfChecked++
			c.aud.ivfRecallSum += recallAt(want, p.cands, 10)
		default:
			c.aud.exactChecked++
			if msg := diffAnswer(want, p.cands); msg != "" {
				c.aud.fail("item %d on generation %d: %s", p.item, p.gen, msg)
			}
		}
	}
	c.todo = c.todo[:0]
}

// do sends one request and checks the answer: a 2xx must carry a valid
// candidate array, anything else the one error envelope. One flat answer
// in auditEvery, and one IVF answer in ivfAuditEvery, is set aside to be
// compared with a recomputation on the generation that served it.
func (c *client) do(rq request, due time.Time) outcome {
	var (
		hr  *http.Request
		err error
	)
	switch rq.kind {
	case kindSimilar:
		hr, err = http.NewRequest(http.MethodGet, c.t.site.url+"/v1/similar?k="+strconv.Itoa(k)+"&item="+strconv.Itoa(int(rq.item)), nil)
	case kindSimilarIVF:
		hr, err = http.NewRequest(http.MethodGet, c.t.site.url+"/v1/similar?index=ivf&k="+strconv.Itoa(k)+"&item="+strconv.Itoa(int(rq.item)), nil)
	case kindColdItem:
		hr, err = http.NewRequest(http.MethodPost, c.t.site.url+"/v1/coldstart/item", strings.NewReader(rq.body))
	case kindColdUser:
		hr, err = http.NewRequest(http.MethodPost, c.t.site.url+"/v1/coldstart/user", strings.NewReader(rq.body))
	}
	if err != nil {
		return outcome{bad: err.Error()}
	}
	id, start := c.rec.begin()
	if id != 0 {
		hr.Header.Set(traceHeader, strconv.FormatUint(id, 10))
		// The client span starts when the request was due, like the
		// latency it explains.
		start = due
	}
	out := c.roundTrip(hr)
	c.rec.end(id, 0, id, "client", start)

	c.sent++
	if !out.ok() {
		return out
	}
	if out.gen < c.lastGen {
		c.aud.fail("generation went back on one connection: %d after %d", out.gen, c.lastGen)
		out.bad = "generation regressed"
		return out
	}
	if out.gen != c.lastGen {
		c.flush()
		c.lastGen = out.gen
	}
	switch {
	case rq.kind == kindSimilar && c.sent%auditEvery == 0:
		c.todo = append(c.todo, pendingCheck{item: rq.item, gen: out.gen, cands: out.cands})
	case rq.kind == kindSimilarIVF && c.sent%ivfAuditEvery == 0:
		c.todo = append(c.todo, pendingCheck{ivf: true, item: rq.item, gen: out.gen, cands: out.cands})
	}
	return out
}

func (c *client) roundTrip(hr *http.Request) outcome {
	resp, err := c.http.Do(hr)
	if err != nil {
		return outcome{bad: err.Error()}
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // the body was read to the end; nothing left to lose
	out := outcome{status: resp.StatusCode}
	if err != nil {
		out.bad = err.Error()
		return out
	}
	out.gen, _ = strconv.ParseUint(resp.Header.Get("X-Model-Generation"), 10, 64)
	if out.status >= 200 && out.status < 300 {
		out.cands, out.bad = parseCandidates(body)
	} else if !isErrorEnvelope(body) {
		out.bad = "not the error envelope"
	}
	return out
}

// parseCandidates accepts exactly a JSON array of at most k candidates in
// non-increasing score order.
func parseCandidates(body []byte) ([]server.Candidate, string) {
	var cs []server.Candidate
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cs); err != nil {
		return nil, "malformed candidate array: " + err.Error()
	}
	if len(cs) == 0 || len(cs) > k {
		return nil, fmt.Sprintf("candidate array has %d entries, want 1..%d", len(cs), k)
	}
	for i := 1; i < len(cs); i++ {
		if cs[i].Score > cs[i-1].Score || math.IsNaN(float64(cs[i].Score)) {
			return nil, "candidate scores are not in descending order"
		}
	}
	return cs, ""
}

func isErrorEnvelope(body []byte) bool {
	var env struct {
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	return json.Unmarshal(body, &env) == nil && env.Error != nil && env.Error.Code != ""
}

// reference recomputes the exact answer on the generation that served it,
// or nil when that generation is no longer kept.
func (c *client) reference(item int32, gen uint64) []knn.Result {
	snap := c.t.book.get(gen)
	if snap == nil {
		return nil
	}
	rs, err := snap.Similar(context.Background(), []int32{item}, knn.Options{K: k})
	if err != nil {
		c.aud.fail("reference scan of item %d on generation %d: %v", item, gen, err)
		return nil
	}
	return rs[0]
}

// diffAnswer compares a flat answer id for id and score for score.
func diffAnswer(want []knn.Result, got []server.Candidate) string {
	if len(want) != len(got) {
		return fmt.Sprintf("answer has %d candidates, the index returns %d", len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].Item || want[i].Score != got[i].Score {
			return fmt.Sprintf("candidate %d is (%d, %g), the index returns (%d, %g)",
				i, got[i].Item, got[i].Score, want[i].ID, want[i].Score)
		}
	}
	return ""
}

// recallAt is the share of the flat top n that the answer's top n holds.
func recallAt(want []knn.Result, got []server.Candidate, n int) float64 {
	if len(want) > n {
		want = want[:n]
	}
	if len(got) > n {
		got = got[:n]
	}
	if len(want) == 0 {
		return 1
	}
	hit := 0
	for _, w := range want {
		for _, g := range got {
			if g.Item == w.ID {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(want))
}

// sample is one finished request of a load phase.
type sample struct {
	kind   reqKind
	gen    uint64
	ok     bool
	at     time.Duration // due time, since the phase began
	latMs  float64       // open loop: from the due time; closed loop: from the send
	lateMs float64       // open loop: actual − due send time
}

// loadResult is one load phase on one target.
type loadResult struct {
	samples  []sample
	aud      audit
	duration time.Duration
	rate     float64 // offered rate; 0 for a closed loop
}

func (l *loadResult) sent() int { return len(l.samples) }

func (l *loadResult) failed() int {
	n := 0
	for _, s := range l.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// okLatencies returns the latencies (ms) of the requests answered 2xx.
func (l *loadResult) okLatencies() []float64 {
	out := make([]float64, 0, len(l.samples))
	for _, s := range l.samples {
		if s.ok {
			out = append(out, s.latMs)
		}
	}
	return out
}

func (l *loadResult) lateness() []float64 {
	out := make([]float64, len(l.samples))
	for i, s := range l.samples {
		out[i] = s.lateMs
	}
	return out
}

// doFunc answers one request; the load loops are written against it so
// the self-tests can drive them with a fake server.
type doFunc func(rq request, due time.Time) outcome

// openLoop offers Poisson arrivals at rate/conns on each of conns
// connections for dur, whatever the server does. Each request is timed
// from the moment it was due, so a stall is charged to every request that
// had to wait behind it, and how late the generator itself ran is kept
// beside it. stop, when non-nil, ends the phase early.
func openLoop(conns int, rate float64, dur time.Duration, seed uint64, stop <-chan struct{},
	newConn func(conn int) (next func() request, do doFunc, done func() audit)) loadResult {
	res := loadResult{rate: rate}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	begin := time.Now()
	end := begin.Add(dur)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next, do, done := newConn(c)
			arrivals := rng.New(seed ^ 0xa881 + uint64(c)*0x9e37)
			perConn := rate / float64(conns)
			var local []sample
			due := begin
			for {
				due = due.Add(time.Duration(-math.Log(1-arrivals.Float64()) / perConn * float64(time.Second)))
				if due.After(end) {
					break
				}
				if !waitUntil(due, stop) {
					break
				}
				rq := next()
				sentAt := time.Now()
				out := do(rq, due)
				local = append(local, sample{
					kind: rq.kind, gen: out.gen, ok: out.ok(), at: due.Sub(begin),
					latMs: ms(time.Since(due)), lateMs: ms(sentAt.Sub(due)),
				})
			}
			a := done()
			mu.Lock()
			res.samples = append(res.samples, local...)
			res.aud.merge(a)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.duration = time.Since(begin)
	if res.duration < dur && stop == nil {
		res.duration = dur
	}
	return res
}

// waitUntil sleeps to the due time; it returns false as soon as stop is
// closed. The last stretch sleeps in the kernel, not in the Go runtime: an
// otherwise idle Go process rounds every timer wait up to a millisecond
// (its poller's resolution), which at thousands of requests per second
// would make the generator, not the server, set the latency. Polling the
// clock instead would starve the network poller on a two-core box.
func waitUntil(due time.Time, stop <-chan struct{}) bool {
	for {
		wait := time.Until(due)
		if wait <= 0 {
			return true
		}
		select {
		case <-stop: // a nil channel never fires
			return false
		default:
		}
		if wait > 5*time.Millisecond {
			time.Sleep(wait - 3*time.Millisecond)
			continue
		}
		if wait > time.Millisecond {
			wait = time.Millisecond // look at stop again soon
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up just goes round the loop again
	}
}

// closedLoop keeps conns clients busy back to back for dur: each sends its
// next request when the previous answer arrives.
func closedLoop(conns int, dur time.Duration,
	newConn func(conn int) (next func() request, do doFunc, done func() audit)) loadResult {
	var (
		res loadResult
		mu  sync.Mutex
		wg  sync.WaitGroup
	)
	begin := time.Now()
	end := begin.Add(dur)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next, do, done := newConn(c)
			var local []sample
			for time.Now().Before(end) {
				rq := next()
				sentAt := time.Now()
				out := do(rq, sentAt)
				local = append(local, sample{kind: rq.kind, gen: out.gen, ok: out.ok(), at: sentAt.Sub(begin), latMs: ms(time.Since(sentAt))})
			}
			a := done()
			mu.Lock()
			res.samples = append(res.samples, local...)
			res.aud.merge(a)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.duration = time.Since(begin)
	return res
}

// connFactory makes real keep-alive connections to t sending tr's mix.
func connFactory(t *target, tr traffic, ivf float64, seed uint64, rec *recorder) func(int) (func() request, doFunc, func() audit) {
	return func(conn int) (func() request, doFunc, func() audit) {
		c := newClient(t, rec)
		m := newMix(t, tr, ivf, seed+uint64(conn)*7919)
		return m.next, c.do, c.finish
	}
}

// rung is one step of the rate ladder.
type rung struct {
	Rate     float64 `json:"rate_rps"`
	Sent     int     `json:"sent"`
	Within   int     `json:"within_limit"`
	P99Ms    float64 `json:"p99_ms"`
	LateP99  float64 `json:"lateness_p99_ms"`
	TailLate float64 `json:"tail_lateness_ms"`
	Pass     bool    `json:"pass"`
}

// judgeRung decides whether one rung met the latency limit: at least
// sloShare of the requests SENT were answered 2xx within the limit (a
// failed, refused or malformed answer misses), and the generator's backlog
// was not growing — its lateness over the last fifth of the rung stays
// under the limit too.
func judgeRung(l *loadResult, limit time.Duration) rung {
	r := rung{Rate: l.rate, Sent: l.sent()}
	lim := ms(limit)
	for _, s := range l.samples {
		if s.ok && s.latMs <= lim {
			r.Within++
		}
	}
	r.P99Ms = percentile(l.okLatencies(), 0.99)
	r.LateP99 = percentile(l.lateness(), 0.99)
	for _, s := range l.samples {
		if s.at >= l.duration*4/5 && s.lateMs > r.TailLate {
			r.TailLate = s.lateMs
		}
	}
	r.Pass = r.Sent > 0 && float64(r.Within) >= sloShare*float64(r.Sent) && r.TailLate <= lim
	return r
}

// sloRate is the ladder's verdict: the highest rung that passed before the
// first that failed (0 when the first rung already fails).
func sloRate(rungs []rung) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.Pass {
			break
		}
		best = r.Rate
	}
	return best
}
