package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

var (
	metricComment = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* \S.*$`)
	metricSample  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)
)

func fetchMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// series strips sample values, leaving just "name{labels}" per line, so two
// exposition snapshots can be compared for ordering while counters move.
func series(body string) []string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line[:strings.LastIndexByte(line, ' ')])
	}
	return out
}

// The exposition page must be parseable Prometheus text format: every line
// a valid comment or sample, every series preceded by its HELP/TYPE pair,
// and the series order stable across scrapes.
func TestMetricsEndpointParses(t *testing.T) {
	_, ts := testServer(t)

	// Generate some traffic first so histograms have observations.
	// The unversioned /similar is not a route: it answers 404 and is counted
	// with /nowhere in the "other" series, never under a label of its own.
	for p, want := range map[string]int{
		"/v1/similar?item=1":          http.StatusOK,
		"/v1/coldstart/user?gender=F": http.StatusOK,
		"/healthz":                    http.StatusOK,
		"/nowhere":                    http.StatusNotFound,
		"/similar?item=1":             http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", p, resp.StatusCode, want)
		}
	}

	body := fetchMetrics(t, ts)
	seen := make(map[string]bool) // metric families with HELP/TYPE emitted
	samples := 0
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !metricComment.MatchString(line) {
				t.Fatalf("line %d: bad comment %q", i+1, line)
			}
			seen[strings.Fields(line)[2]] = true
			continue
		}
		if !metricSample.MatchString(line) {
			t.Fatalf("line %d: bad sample %q", i+1, line)
		}
		samples++
		name := line
		if j := strings.IndexAny(name, "{ "); j >= 0 {
			name = name[:j]
		}
		// A histogram's _bucket/_sum/_count samples belong to the base family.
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && seen[b] {
				base = b
				break
			}
		}
		if !seen[base] {
			t.Fatalf("line %d: sample %q before any HELP/TYPE for %q", i+1, line, base)
		}
	}
	if samples == 0 {
		t.Fatal("exposition page has no samples")
	}

	// The wired-in families must all be present.
	for _, want := range []string{
		`http_requests_total{code="2xx",path="/v1/similar"} 1`,
		`http_requests_total{code="4xx",path="other"} 2`, // /nowhere and /similar
		`http_request_duration_seconds_bucket{path="/v1/similar",le="+Inf"}`,
		`http_request_duration_seconds_sum{path="/v1/similar"}`,
		`http_request_duration_seconds_count{path="/v1/similar"}`,
		"http_inflight",
		"http_panics_total",
		"http_shed_total",
		"http_client_errors_total",
		`serve_candidates_total{path="/similar"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition page missing %q", want)
		}
	}

	if gone := `http_requests_total{code="4xx",path="/similar"}`; strings.Contains(body, gone) {
		t.Errorf("exposition page still carries a series for the deleted alias: %q", gone)
	}

	// Ordering is deterministic: same series, same order, on every scrape.
	again := fetchMetrics(t, ts)
	a, b := series(body), series(again)
	if len(a) != len(b) {
		t.Fatalf("series count changed between scrapes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("series %d reordered between scrapes: %q vs %q", i, a[i], b[i])
		}
	}
}

// Counters must survive a request → panic → recovery cycle: the panic is
// answered 500, counted, and the registry keeps serving /metrics.
func TestMetricsSurvivePanic(t *testing.T) {
	s, ts := testServer(t)

	// A panicking endpoint behind the full production chain (recovery,
	// instrumentation, shedding, timeout) — same wrapping as Handler().
	boom := httptest.NewServer(s.harden(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	})))
	defer boom.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(boom.URL + "/kaboom")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panicking handler answered %d, want 500", resp.StatusCode)
		}
	}

	body := fetchMetrics(t, ts)
	for _, want := range []string{
		"http_panics_total 3",
		`http_requests_total{code="5xx",path="other"} 3`, // measured during unwind
	} {
		if !strings.Contains(body, want) {
			t.Errorf("after panics, exposition page missing %q\n%s", want, body)
		}
	}
	if v, ok := s.reg.Value("http_panics_total"); !ok || v != 3 {
		t.Fatalf("registry Value(http_panics_total) = %v,%v want 3", v, ok)
	}
}
