package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"sisg/internal/model"
	"sisg/internal/sgns"
	"sisg/internal/sisg"
	"sisg/internal/vocab"
)

func fetchBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func decodeEnvelope(t *testing.T, b []byte) errorEnvelope {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("error body is not the envelope: %v\nbody: %s", err, b)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", b)
	}
	return env
}

// Every failure mode — bad input, recovered panic, shed load, timeout —
// must answer with the one JSON error shape and a stable machine code.
func TestErrorEnvelope(t *testing.T) {
	s, ts := testServer(t)

	code, body := fetchBody(t, ts.URL+"/v1/similar?item=notanint")
	if code != http.StatusBadRequest {
		t.Fatalf("bad input: status %d", code)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != "bad_request" {
		t.Fatalf("bad input: code %q, want bad_request", env.Error.Code)
	}

	boom := s.withRecovery(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	boom.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/similar", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic: status %d", rec.Code)
	}
	if env := decodeEnvelope(t, rec.Body.Bytes()); env.Error.Code != "internal" {
		t.Fatalf("panic: code %q, want internal", env.Error.Code)
	}

	// Saturate the admission budget directly; a default /v1/similar scan
	// then sheds with the overloaded envelope.
	s.adm.inflight.Store(s.adm.budget)
	code, body = fetchBody(t, ts.URL+"/v1/similar?item=1&k=5")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("shed: status %d", code)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != "overloaded" {
		t.Fatalf("shed: code %q, want overloaded", env.Error.Code)
	}
	s.adm.inflight.Store(0)

	// A retrieval abandoned because the client went away maps to 499 with
	// its own stable code — a client outcome, never a server error.
	rec = httptest.NewRecorder()
	s.retrievalError(rec, fmt.Errorf("scan: %w", context.Canceled))
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("canceled: status %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if env := decodeEnvelope(t, rec.Body.Bytes()); env.Error.Code != "canceled" {
		t.Fatalf("canceled: code %q, want canceled", env.Error.Code)
	}

	// http.TimeoutHandler writes timeoutBody verbatim; it must parse as
	// the same envelope.
	if env := decodeEnvelope(t, []byte(timeoutBody)); env.Error.Code != "timeout" {
		t.Fatalf("timeout: code %q, want timeout", env.Error.Code)
	}
}

// A stream generation that has not admitted the rows a cold-start answer
// composes from — here the first one, published before any session — does
// not serve that answer: 404 not_servable, as /v1/similar, never a 500.
func TestColdStartNotServableOnEmptyGeneration(t *testing.T) {
	ds := testDataset(t)
	st, err := sisg.NewStreamer(ds.Dict, sisg.StreamConfig{
		Variant: sisg.VariantSISGFUD,
		Admit:   vocab.AdmitConfig{Budget: 100, MinCount: 1},
		Live:    sgns.LiveDefaults(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithHolder(ds, model.NewHolder(st.Publish()), Config{MaxK: 100})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/similar?item=3&k=5", "/v1/coldstart/item?item=3&k=5", "/v1/coldstart/user?gender=F&k=5"} {
		code, body := fetchBody(t, ts.URL+path)
		if code != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404: %s", path, code, body)
		}
		if env := decodeEnvelope(t, body); env.Error.Code != "not_servable" {
			t.Fatalf("%s: code %q, want not_servable", path, env.Error.Code)
		}
	}
}

// With CacheSize set, a repeated /v1/similar query is served from the cache
// byte-identically, and hits/misses are counted; a different k is a
// different cache key.
func TestSimilarCache(t *testing.T) {
	cached, ts := testServerWith(t, Config{MaxK: 100, CacheSize: 8})

	code1, first := fetchBody(t, ts.URL+"/v1/similar?item=5&k=7")
	code2, second := fetchBody(t, ts.URL+"/v1/similar?item=5&k=7")
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("status %d / %d", code1, code2)
	}
	if string(first) != string(second) {
		t.Fatalf("cached response differs:\nscan:  %s\ncache: %s", first, second)
	}
	if h, m := cached.cacheFor(1).Hits(), cached.cacheFor(1).Misses(); h != 1 || m != 1 {
		t.Fatalf("after repeat: hits=%d misses=%d, want 1/1", h, m)
	}
	if _, b := fetchBody(t, ts.URL+"/v1/similar?item=5&k=9"); len(b) == 0 {
		t.Fatal("empty body for k=9")
	}
	if h, m := cached.cacheFor(1).Hits(), cached.cacheFor(1).Misses(); h != 1 || m != 2 {
		t.Fatalf("after new k: hits=%d misses=%d, want 1/2", h, m)
	}
	if got := cached.cacheHits.Value(); got != 1 {
		t.Fatalf("retrieval_cache_hits_total = %d, want 1", got)
	}
	if got := cached.cacheMisses.Value(); got != 2 {
		t.Fatalf("retrieval_cache_misses_total = %d, want 2", got)
	}
}
