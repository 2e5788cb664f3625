package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sisg/internal/knn"
	"sisg/internal/model"
)

// A panicking handler must be answered with a 500 and counted, never kill
// the process, and must not poison subsequent requests.
func TestPanicRecovery(t *testing.T) {
	s, _ := testServer(t)
	boom := s.withRecovery(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	ts := httptest.NewServer(boom)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panicking handler answered %d, want 500", resp.StatusCode)
		}
	}
	if got := s.Stats().Panics; got != 3 {
		t.Fatalf("Panics = %d, want 3", got)
	}
}

// Retrievals whose predicted cost does not fit the remaining admission
// budget are shed with 503 + Retry-After while the admitted scan proceeds.
func TestConcurrencyLimiterSheds(t *testing.T) {
	s, ts := testServer(t)
	s.adm = &admission{budget: testFlatCost(s)} // room for exactly one flat scan

	inside := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.retrieve = func(ctx context.Context, snap model.Snapshot, item int32, opts knn.Options) ([]knn.Result, error) {
		once.Do(func() { close(inside) })
		<-release
		return nil, nil
	}

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/similar?item=1&k=5")
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-inside // the whole budget is now held by the blocked scan

	// A different item (so single-flight cannot coalesce it) must shed.
	resp, err := http.Get(ts.URL + "/v1/similar?item=2&k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-limit request answered %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response has no Retry-After header")
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Shed; got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}
}

// A request that exceeds RequestTimeout is cut off with 503 instead of
// holding its connection open indefinitely.
func TestRequestTimeout(t *testing.T) {
	s, _ := testServer(t)
	s.cfg.RequestTimeout = 20 * time.Millisecond
	done := make(chan struct{})
	slow := s.harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-done:
		}
	}))
	ts := httptest.NewServer(slow)
	defer ts.Close()
	defer close(done)

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request answered %d, want 503", resp.StatusCode)
	}
}

// The full hardened handler chain still serves the normal API.
func TestHardenedChainServes(t *testing.T) {
	s, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/similar?item=1&k=5")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("similar via hardened chain: %d %s", resp.StatusCode, body)
	}
	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Similar != 1 || st.Panics != 0 || st.Shed != 0 {
		t.Fatalf("stats after one request: %+v", st)
	}
	_ = s
}
