package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"sisg/internal/knn"
	"sisg/internal/rng"
	"sisg/internal/server"
)

func TestPercentileAgainstSortedReference(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 4000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		ref := append([]float64(nil), xs...)
		sort.Float64s(ref)
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			// Nearest rank: the smallest value with at least q·n values at
			// or below it, counted the slow way.
			want := ref[n-1]
			for _, v := range ref {
				atOrBelow := 0
				for _, u := range ref {
					if u <= v {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= q*float64(n) {
					want = v
					break
				}
			}
			if got := percentile(xs, q); got != want {
				t.Errorf("n=%d q=%v: percentile = %v, reference = %v", n, q, got, want)
			}
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN, not a fast-looking zero")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles = %v, %v, median %v; python gives 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Fatalf("quartiles = %v, %v; python gives 1.5, 12.0", q1, q3)
	}
	if got := spread(xs); got != 1 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTopDecile(t *testing.T) {
	xs := []float64{3, 9, 1, 10, 5, 7, 2, 8, 4, 6}
	if got := topDecile(xs); got != 9 {
		t.Errorf("topDecile = %v, want 9: one round in ten may be better", got)
	}
}

func TestAtReferenceSpeed(t *testing.T) {
	// A machine at half its usual speed throughout the run.
	y := &yardstick{speeds: []float64{yardPeak / 2, yardPeak / 2, yardPeak / 2}}
	if got, want := y.atReferenceSpeed("sgns_pairs_per_s", value{100, "pairs/s"}).Value, 100/math.Pow(0.5, rateElasticity); math.Abs(got-want) > 1e-9 {
		t.Errorf("a rate measured on a slow machine must be reported higher: got %v, want %v", got, want)
	}
	slow := yardPeak / 2 / yardTypical
	if got, want := y.atReferenceSpeed("p50_ms", value{2, "ms"}).Value, 2*math.Pow(slow, timeElasticity); math.Abs(got-want) > 1e-9 {
		t.Errorf("a time measured on a slow machine must be reported lower: got %v, want %v", got, want)
	}
	for _, v := range []value{{0.06, "fraction"}, {350, "MB"}} {
		if got := y.atReferenceSpeed("hr10", v); got != v {
			t.Errorf("a metric without a listed sensitivity must stay as measured: %v became %v", v, got)
		}
	}
}

// fakeConn is a connection to a server that answers instantly, except that
// the request sent first after stallAt sleeps for stall.
type fakeConn struct {
	begin   time.Time
	stallAt time.Duration
	stall   time.Duration
	stalled bool
}

func (f *fakeConn) do(rq request, due time.Time) outcome {
	if !f.stalled && time.Since(f.begin) >= f.stallAt {
		f.stalled = true
		time.Sleep(f.stall)
	}
	return outcome{status: http.StatusOK}
}

func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	const (
		rate  = 400.0
		dur   = time.Second
		stall = 200 * time.Millisecond
	)
	fc := &fakeConn{begin: time.Now(), stallAt: 300 * time.Millisecond, stall: stall}
	res := openLoop(1, rate, dur, 11, nil, func(int) (func() request, doFunc, func() audit) {
		return func() request { return request{} }, fc.do, func() audit { return audit{} }
	})
	// No coordinated omission, part one: the stall does not thin the
	// schedule. A generator that waited for each answer before drawing the
	// next arrival would send about a fifth fewer.
	if sent := res.sent(); float64(sent) < 0.9*rate*dur.Seconds() {
		t.Fatalf("sent %d requests; the schedule has about %.0f", sent, rate*dur.Seconds())
	}
	// Part two: every request that fell due during the stall waited for it,
	// and its latency — timed from the due time — says so. About
	// rate × stall requests are behind the stall, their waits spread evenly
	// from the whole stall down to nothing.
	behind, late := 0, 0
	for _, s := range res.samples {
		if s.latMs > ms(stall)/4 {
			behind++
		}
		if s.lateMs > ms(stall)/4 {
			late++
		}
	}
	if want := int(0.75 * rate * stall.Seconds() * 0.7); behind < want {
		t.Fatalf("%d requests carry the stall in their latency, want at least %d", behind, want)
	}
	if late < behind-1 {
		t.Fatalf("generator lateness shows the stall on %d requests, latency on %d", late, behind)
	}
	if p50 := percentile(res.okLatencies(), 0.5); p50 > 5 {
		t.Fatalf("median latency %v ms: the stall should touch a fifth of the requests, not half", p50)
	}
}

func TestClosedLoopSlowsWithTheServer(t *testing.T) {
	// The contrast that makes the open loop worth its trouble: the same
	// stall costs a closed loop one slow request and a lower count.
	fc := &fakeConn{begin: time.Now(), stallAt: 100 * time.Millisecond, stall: 200 * time.Millisecond}
	res := closedLoop(1, 400*time.Millisecond, func(int) (func() request, doFunc, func() audit) {
		return func() request { return request{} }, func(rq request, due time.Time) outcome {
			time.Sleep(time.Millisecond)
			return fc.do(rq, due)
		}, func() audit { return audit{} }
	})
	slow := 0
	for _, s := range res.samples {
		if s.latMs > 50 {
			slow++
		}
	}
	if slow != 1 {
		t.Fatalf("%d slow requests in the closed loop, want exactly the stalled one", slow)
	}
}

func load(rate float64, n int, latMs, lateMs float64, failEvery int) loadResult {
	l := loadResult{rate: rate, duration: time.Second}
	for i := 0; i < n; i++ {
		l.samples = append(l.samples, sample{ok: failEvery == 0 || i%failEvery != 0, latMs: latMs, lateMs: lateMs,
			at: time.Duration(i) * time.Second / time.Duration(n)})
	}
	return l
}

func TestLadderDecision(t *testing.T) {
	limit := 10 * time.Millisecond
	fast := load(100, 1000, 2, 0.1, 0)
	if r := judgeRung(&fast, limit); !r.Pass || r.Within != 1000 {
		t.Errorf("a rung answered in 2 ms must pass: %+v", r)
	}
	slow := load(200, 1000, 12, 0.1, 0)
	if r := judgeRung(&slow, limit); r.Pass {
		t.Errorf("a rung answered in 12 ms must miss a 10 ms limit: %+v", r)
	}
	// 2 % refused: fast answers, but a refusal misses the limit.
	refused := load(300, 1000, 2, 0.1, 50)
	if r := judgeRung(&refused, limit); r.Pass || r.Within != 980 {
		t.Errorf("a rung with 2 %% failures must miss a 99 %% limit: %+v", r)
	}
	// 0.5 % refused is inside the 1 % allowance.
	few := load(300, 1000, 2, 0.1, 200)
	if r := judgeRung(&few, limit); !r.Pass {
		t.Errorf("a rung with 0.5 %% failures must pass: %+v", r)
	}
	// Answers on time, but the generator fell behind at the end: backlog.
	backlog := load(400, 1000, 2, 0.1, 0)
	for i := 900; i < 1000; i++ {
		backlog.samples[i].lateMs = 30
	}
	if r := judgeRung(&backlog, limit); r.Pass {
		t.Errorf("a rung whose generator ends 30 ms behind must not pass: %+v", r)
	}

	pass, fail := rung{Rate: 1, Pass: true}, rung{Rate: 1}
	mk := func(ps ...bool) []rung {
		var rs []rung
		for i, p := range ps {
			r := fail
			if p {
				r = pass
			}
			r.Rate = float64(100 * (i + 1))
			rs = append(rs, r)
		}
		return rs
	}
	for _, c := range []struct {
		rungs []rung
		want  float64
	}{
		{mk(true, true, false), 200},
		{mk(false), 0},
		{mk(true, true, true), 300},
		{mk(true, false, true), 100}, // the ladder stops at the first miss
	} {
		if got := sloRate(c.rungs); got != c.want {
			t.Errorf("sloRate(%v) = %v, want %v", c.rungs, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "server.handler", Start: 100, End: 900},
		{ID: 3, Parent: 2, Name: "sisg.similar", Start: 200, End: 700},
		// Two overlapping children of one parent are not subtracted twice,
		// and a child that overruns its parent is clipped to it.
		{ID: 10, Name: "root", Start: 0, End: 100},
		{ID: 11, Parent: 10, Name: "a", Start: 10, End: 60},
		{ID: 12, Parent: 10, Name: "b", Start: 40, End: 120},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 200, 2: 300, 3: 500, 10: 10, 11: 50, 12: 80} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	b := readBudget(spans[:3], 0.4, 0.5)
	if b.Requests != 1 || b.LoopbackUs != 0.2 || b.HandlerSelfUs != 0.3 || b.KnnUs != 0.4 || math.Abs(b.SnapshotSelfUs-0.1) > 1e-9 {
		t.Errorf("budget = %+v", b)
	}
	if math.Abs(b.ResidueUs) > 1e-9 {
		t.Errorf("one request's layers must add up to its client span: residue %v", b.ResidueUs)
	}
}

func TestAnswerChecks(t *testing.T) {
	want := []knn.Result{{ID: 5, Score: 0.9}, {ID: 7, Score: 0.8}}
	good := []server.Candidate{{Item: 5, Score: 0.9}, {Item: 7, Score: 0.8}}
	if msg := diffAnswer(want, good); msg != "" {
		t.Errorf("identical answers differ: %s", msg)
	}
	for name, bad := range map[string][]server.Candidate{
		"wrong id":    {{Item: 5, Score: 0.9}, {Item: 8, Score: 0.8}},
		"wrong score": {{Item: 5, Score: 0.9}, {Item: 7, Score: 0.80001}},
		"short":       {{Item: 5, Score: 0.9}},
	} {
		if diffAnswer(want, bad) == "" {
			t.Errorf("%s: the audit accepted a wrong answer", name)
		}
	}
	if got := recallAt(want, []server.Candidate{{Item: 7}, {Item: 9}}, 10); got != 0.5 {
		t.Errorf("recall = %v, want 0.5", got)
	}
	if _, bad := parseCandidates([]byte(`[{"item":1,"score":0.5,"leaf":0,"brand":0,"tier":0},{"item":2,"score":0.7,"leaf":0,"brand":0,"tier":0}]`)); bad == "" {
		t.Error("ascending scores accepted as a candidate array")
	}
	if _, bad := parseCandidates([]byte(`{"error":{"code":"x","message":"y"}}`)); bad == "" {
		t.Error("an error envelope accepted as a candidate array")
	}
	if !isErrorEnvelope([]byte(`{"error":{"code":"shed","message":"busy"}}`)) || isErrorEnvelope([]byte(`{"oops":1}`)) {
		t.Error("error envelope recognition is wrong")
	}
}

func specNames(ms []specMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func resultNames(ms map[string]value) []string {
	out := make([]string, 0, len(ms))
	for n := range ms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload for a second, untraced and traced, and
// checks that what it emits names exactly the metrics and workloads of
// BENCHMARK.json. With -short it runs the first workload untraced only:
// every workload emits the same names, and set-up and the layer probes are
// what the test's time goes to.
func TestSmoke(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if sp.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json runs for %v s, the benchmark's default is %v", sp.RunSeconds, runSeconds)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	setupRuns = 1
	defer func() { setupRuns = setupRepeats }()
	run, modes := workloads, []bool{false, true}
	if testing.Short() {
		run, modes = workloads[:1], []bool{false}
	}
	for _, wl := range run {
		for _, tr := range modes {
			rep, err := runWorkload(wl, 42, time.Second, tr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, tr, err)
			}
			if !rep.Result.Correct || rep.Result.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", wl.name, tr, rep.Result.Failed, rep.Result.Attempted, rep.Violations)
			}
			want := specNames(sp.EndToEnd)
			if tr {
				want = specNames(sp.PerLayer)
			}
			if got := resultNames(rep.Result.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s traced=%v emits\n  %v\nBENCHMARK.json names\n  %v", wl.name, tr, got, want)
			}
			for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
				if v, ok := rep.Result.Metrics[m.Name]; ok && v.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.name, m.Name, v.Unit, m.Unit)
				}
			}
		}
	}
}

func TestAuditCatchesATamperedAnswer(t *testing.T) {
	e, err := setUp(workloads[0], 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	// A proxy that serves the real answers with the first item id changed.
	real := e.batch.srv.Handler()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		body := rec.Body.String()
		if i := strings.Index(body, `"item":`); i >= 0 {
			body = body[:i] + `"item":1` + body[i+len(`"item":`):] // item 42 becomes item 142: well-formed, wrong
		}
		_, _ = w.Write([]byte(body))
	}))
	defer proxy.Close()
	tampered := *e.batch
	tampered.site = &site{url: proxy.URL}
	c := newClient(&tampered, nil)
	for i := 0; i < auditEvery; i++ {
		if out := c.do(request{kind: kindSimilar, item: int32(i)}, time.Now()); !out.ok() {
			t.Fatalf("request %d: status %d, %s", i, out.status, out.bad)
		}
	}
	aud := c.finish()
	if aud.exactChecked != 1 || aud.violated != 1 {
		t.Fatalf("audit checked %d answers and rejected %d (%v); want 1 and 1", aud.exactChecked, aud.violated, aud.violations)
	}
	// And the same client against the honest server finds nothing.
	h := newClient(e.batch, nil)
	for i := 0; i < auditEvery; i++ {
		h.do(request{kind: kindSimilar, item: int32(i)}, time.Now())
	}
	if aud := h.finish(); aud.exactChecked != 1 || aud.violated != 0 {
		t.Fatalf("honest server: checked %d, rejected %d (%v)", aud.exactChecked, aud.violated, aud.violations)
	}
}
