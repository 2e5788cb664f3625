package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"sisg/internal/corpus"
	"sisg/internal/model"
	"sisg/internal/race"
	"sisg/internal/sgns"
	"sisg/internal/sisg"
)

func testDataset(t *testing.T) *corpus.Dataset {
	t.Helper()
	cfg := corpus.Tiny()
	cfg.NumSessions = 1500
	ds, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return testServerWith(t, Config{MaxK: 100})
}

// testServerWith trains a small batch model and serves it, as the holder's
// one generation, under cfg.
func testServerWith(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	ds := testDataset(t)
	opt := sgns.Defaults()
	opt.Workers = race.Workers(0)
	opt.Epochs = 1
	m, err := sisg.Train(ds.Dict, ds.Sessions, sisg.VariantSISGFUD, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithHolder(ds, model.NewHolder(sisg.NewModelSnapshot(m, 1)), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// testFlatCost is the predicted cost of one flat scan over the server's
// current snapshot, for sizing admission budgets in tests.
func testFlatCost(s *Server) int64 {
	snap, release := s.models.Acquire()
	defer release()
	return flatCost(snap)
}

func getJSON(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	var h map[string]interface{}
	resp := getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if h["status"] != "ok" || h["variant"] != "SISG-F-U-D" {
		t.Fatalf("health payload: %v", h)
	}
}

// Readiness is separate from liveness: flipping SetReady(false) (what the
// drain path does before Shutdown) turns /readyz into a 503 while
// /healthz — and actual serving, for requests already routed here — keeps
// answering 200.
func TestReadyzFlipsIndependentlyOfHealthz(t *testing.T) {
	s, ts := testServer(t)

	var r map[string]string
	resp := getJSON(t, ts.URL+"/readyz", &r)
	if resp.StatusCode != http.StatusOK || r["status"] != "ready" {
		t.Fatalf("fresh server: /readyz = %d %v, want 200 ready", resp.StatusCode, r)
	}

	s.SetReady(false)
	if s.Ready() {
		t.Fatal("Ready() true after SetReady(false)")
	}
	resp = getJSON(t, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server: /readyz = %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("draining server: /healthz = %d, want 200 (alive)", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/similar?item=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("draining server must still serve routed requests: %d", resp.StatusCode)
	}

	s.SetReady(true)
	resp = getJSON(t, ts.URL+"/readyz", &r)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-readied server: /readyz = %d, want 200", resp.StatusCode)
	}
}

func TestSimilar(t *testing.T) {
	_, ts := testServer(t)
	var cands []Candidate
	resp := getJSON(t, ts.URL+"/v1/similar?item=5&k=7", &cands)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(cands) != 7 {
		t.Fatalf("got %d candidates", len(cands))
	}
	for i, c := range cands {
		if c.Item == 5 {
			t.Fatal("query item in its own candidates")
		}
		if i > 0 && c.Score > cands[i-1].Score {
			t.Fatal("candidates not sorted")
		}
	}
}

func TestSimilarDefaults(t *testing.T) {
	_, ts := testServer(t)
	var cands []Candidate
	getJSON(t, ts.URL+"/v1/similar?item=1", &cands)
	if len(cands) != 20 {
		t.Fatalf("default k: got %d", len(cands))
	}
}

func TestColdItem(t *testing.T) {
	_, ts := testServer(t)
	var cands []Candidate
	resp := getJSON(t, ts.URL+"/v1/coldstart/item?item=3&k=5", &cands)
	if resp.StatusCode != http.StatusOK || len(cands) != 5 {
		t.Fatalf("status %d, %d candidates", resp.StatusCode, len(cands))
	}
}

func TestColdUser(t *testing.T) {
	_, ts := testServer(t)
	var cands []Candidate
	resp := getJSON(t, ts.URL+"/v1/coldstart/user?gender=F&power=1&k=4", &cands)
	if resp.StatusCode != http.StatusOK || len(cands) != 4 {
		t.Fatalf("status %d, %d candidates", resp.StatusCode, len(cands))
	}
}

func TestBadRequests(t *testing.T) {
	s, ts := testServer(t)
	for _, path := range []string{
		"/v1/similar?item=99999",
		"/v1/similar?item=-1",
		"/v1/similar",            // missing item
		"/v1/similar?item=1&k=0", // bad k
		"/v1/similar?item=1&k=1e9",
		"/v1/coldstart/item?item=99999",
		"/v1/coldstart/user?gender=X",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
	if s.Stats().ClientErrors == 0 {
		t.Fatal("client errors not counted")
	}
}

func TestStatsCounters(t *testing.T) {
	s, ts := testServer(t)
	getJSON(t, ts.URL+"/v1/similar?item=1", nil)
	getJSON(t, ts.URL+"/v1/coldstart/item?item=1", nil)
	getJSON(t, ts.URL+"/v1/coldstart/user?gender=M", nil)
	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Similar != 1 || st.ColdItem != 1 || st.ColdUser != 1 {
		t.Fatalf("stats: %+v", st)
	}
	local := s.Stats()
	// The snapshot age ticks in real time; normalize it before comparing.
	local.SnapshotAgeSeconds, st.SnapshotAgeSeconds = 0, 0
	if local != st {
		t.Fatal("endpoint and snapshot disagree")
	}
}
