package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// Satellite 3: bad knn.Options spellings must surface as the /v1 error
// envelope's bad_request code end-to-end — the engine's Validate message
// travels to the client, never a 500 and never a silently ignored knob.
func TestANNOptionsBadRequests(t *testing.T) {
	s, ts := testServer(t)
	cases := []struct {
		name        string
		query       string
		wantMessage string // substring of the envelope message
	}{
		{"unknown index", "/v1/similar?item=1&k=5&index=hnsw", `unknown index "hnsw"`},
		{"negative nprobe", "/v1/similar?item=1&k=5&index=ivf&nprobe=-2", "nprobe must be >= 0"},
		{"nprobe not integer", "/v1/similar?item=1&k=5&index=ivf&nprobe=lots", "nprobe is not an integer"},
		{"nprobe without ivf", "/v1/similar?item=1&k=5&nprobe=4", "nprobe is only meaningful with index=ivf"},
		{"nprobe with flat", "/v1/similar?item=1&k=5&index=flat&nprobe=4", "nprobe is only meaningful with index=ivf"},
	}
	before := s.Stats().ClientErrors
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := fetchBody(t, ts.URL+tc.query)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body: %s)", code, body)
			}
			env := decodeEnvelope(t, body)
			if env.Error.Code != "bad_request" {
				t.Fatalf("code %q, want bad_request (body: %s)", env.Error.Code, body)
			}
			if !strings.Contains(env.Error.Message, tc.wantMessage) {
				t.Fatalf("message %q does not mention %q", env.Error.Message, tc.wantMessage)
			}
		})
	}
	if got, want := s.Stats().ClientErrors-before, uint64(len(cases)); got != want {
		t.Fatalf("ClientErrors advanced by %d, want %d", got, want)
	}
}

// The exhaustive-probe degenerate case holds end-to-end: /v1/similar with
// index=ivf and an nprobe covering every cluster serves a byte-identical
// body to the default exact scan, quantization and all intermediate
// plumbing included only where it cannot change the answer.
func TestANNExhaustiveMatchesFlatOverHTTP(t *testing.T) {
	_, ts := testServer(t)
	for _, q := range []string{"item=5&k=7", "item=42&k=20"} {
		flatCode, flat := fetchBody(t, ts.URL+"/v1/similar?"+q)
		ivfCode, ivf := fetchBody(t, ts.URL+"/v1/similar?"+q+"&index=ivf&nprobe=1000000")
		if flatCode != http.StatusOK || ivfCode != http.StatusOK {
			t.Fatalf("%s: flat %d, ivf %d", q, flatCode, ivfCode)
		}
		if string(flat) != string(ivf) {
			t.Fatalf("%s: exhaustive IVF body differs from flat:\nflat: %s\nivf:  %s", q, flat, ivf)
		}
		explicitCode, explicit := fetchBody(t, ts.URL+"/v1/similar?"+q+"&index=flat")
		if explicitCode != http.StatusOK || string(explicit) != string(flat) {
			t.Fatalf("%s: explicit index=flat differs from default (status %d)", q, explicitCode)
		}
	}
}

// Default-probe IVF (with and without quantization) serves a well-formed
// candidate list of the requested size; the ANN path must not interfere
// with the exact-scan cache (approximate results must never be served to
// a later exact request, or vice versa).
func TestANNServesAndCacheStaysExact(t *testing.T) {
	s, ts := testServerWith(t, Config{MaxK: 100, CacheSize: 64})

	warm := func(url string, wantLen int) {
		t.Helper()
		code, body := fetchBody(t, url)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (body: %s)", url, code, body)
		}
		var cands []Candidate
		if err := json.Unmarshal(body, &cands); err != nil {
			t.Fatalf("%s: bad body: %v", url, err)
		}
		if len(cands) != wantLen {
			t.Fatalf("%s: %d candidates, want %d", url, len(cands), wantLen)
		}
	}
	warm(ts.URL+"/v1/similar?item=7&k=10&index=ivf", 10)
	warm(ts.URL+"/v1/similar?item=7&k=10&index=ivf&nprobe=3", 10)
	if got := s.cacheMisses.Value() + s.cacheHits.Value(); got != 0 {
		t.Fatalf("ANN requests touched the exact-scan cache (%d hits+misses)", got)
	}
	warm(ts.URL+"/v1/similar?item=7&k=10", 10) // exact: populates the cache
	if got := s.cacheMisses.Value(); got != 1 {
		t.Fatalf("exact request should miss once, got %d misses", got)
	}
	warm(ts.URL+"/v1/similar?item=7&k=10", 10)
	if got := s.cacheHits.Value(); got != 1 {
		t.Fatalf("repeat exact request should hit the cache, got %d hits", got)
	}
}
