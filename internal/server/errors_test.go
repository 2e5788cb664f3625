package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// Table-driven coverage of the client-error paths: every malformed input —
// bad query parameters, bad JSON bodies, unknown SI tokens, non-positive
// or overflowing k — must be answered 400 with a counted client error,
// never a 500 and never a silent fallback.
func TestClientErrorPaths(t *testing.T) {
	s, ts := testServer(t)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
	}{
		// /similar query-parameter errors.
		{"similar item missing", "GET", "/v1/similar", ""},
		{"similar item not integer", "GET", "/v1/similar?item=abc", ""},
		{"similar item overflow", "GET", "/v1/similar?item=99999999999999999999", ""},
		{"similar item negative", "GET", "/v1/similar?item=-1", ""},
		{"similar item out of range", "GET", "/v1/similar?item=99999", ""},
		{"similar k zero", "GET", "/v1/similar?item=1&k=0", ""},
		{"similar k negative", "GET", "/v1/similar?item=1&k=-5", ""},
		{"similar k over maxK", "GET", "/v1/similar?item=1&k=101", ""},
		{"similar k overflow", "GET", "/v1/similar?item=1&k=99999999999999999999", ""},
		{"similar k not integer", "GET", "/v1/similar?item=1&k=ten", ""},

		// /v1/coldstart/item GET errors share itemAndK with /v1/similar.
		{"cold item out of range", "GET", "/v1/coldstart/item?item=99999", ""},
		{"cold item k zero", "GET", "/v1/coldstart/item?item=1&k=0", ""},

		// /v1/coldstart/item POST body errors.
		{"cold item invalid json", "POST", "/v1/coldstart/item", `{"si": [`},
		{"cold item not an object", "POST", "/v1/coldstart/item", `"si"`},
		{"cold item unknown field", "POST", "/v1/coldstart/item", `{"sideinfo": ["brand:1"]}`},
		{"cold item trailing garbage", "POST", "/v1/coldstart/item", `{"si": ["brand:1"]} {"again": true}`},
		{"cold item empty si", "POST", "/v1/coldstart/item", `{"si": []}`},
		{"cold item unknown si tokens", "POST", "/v1/coldstart/item", `{"si": ["no-such-token", "also-missing"]}`},
		{"cold item k negative", "POST", "/v1/coldstart/item", `{"si": ["x"], "k": -1}`},
		{"cold item k over maxK", "POST", "/v1/coldstart/item", `{"si": ["x"], "k": 101}`},

		// /v1/coldstart/user GET errors.
		{"cold user unknown gender", "GET", "/v1/coldstart/user?gender=X", ""},
		{"cold user age not integer", "GET", "/v1/coldstart/user?age=old", ""},
		{"cold user power not integer", "GET", "/v1/coldstart/user?power=high", ""},
		{"cold user k zero", "GET", "/v1/coldstart/user?gender=F&k=0", ""},
		{"cold user no matching types", "GET", "/v1/coldstart/user?age=9999", ""},

		// /v1/coldstart/user POST body errors.
		{"cold user invalid json", "POST", "/v1/coldstart/user", `{gender: F}`},
		{"cold user unknown field", "POST", "/v1/coldstart/user", `{"sex": "F"}`},
		{"cold user unknown gender body", "POST", "/v1/coldstart/user", `{"gender": "X"}`},
		{"cold user k negative body", "POST", "/v1/coldstart/user", `{"gender": "F", "k": -3}`},
		{"cold user age type mismatch", "POST", "/v1/coldstart/user", `{"age": "young"}`},
		{"cold user no matching types body", "POST", "/v1/coldstart/user", `{"age": 9999}`},
	}
	before := s.Stats().ClientErrors
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.method == "POST" {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body: %s)", resp.StatusCode, body)
			}
			if len(body) == 0 {
				t.Fatal("400 with an empty body gives the client nothing to act on")
			}
		})
	}
	after := s.Stats().ClientErrors
	if got, want := after-before, uint64(len(cases)); got != want {
		t.Fatalf("ClientErrors advanced by %d, want %d (one per rejected request)", got, want)
	}
}

// The POST cold-start paths must also work: a brand-new item known only by
// SI token names, and a cold user described by a JSON body.
func TestColdStartPostHappyPaths(t *testing.T) {
	s, ts := testServer(t)

	// Borrow real SI token names from a catalog item so they resolve.
	names := make([]string, 0, 4)
	for _, id := range s.ds.Dict.ItemSI[3] {
		if id >= 0 {
			names = append(names, s.ds.Dict.Dict.Name(id))
		}
		if len(names) == 4 {
			break
		}
	}
	if len(names) == 0 {
		t.Fatal("test item has no SI tokens")
	}

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post("/v1/coldstart/item", `{"si": ["`+strings.Join(names, `","`)+`"], "k": 5}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold item POST: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"item"`) {
		t.Fatalf("cold item POST returned no candidates: %s", body)
	}

	// A partially-unknown SI list still resolves (unknown names skipped).
	resp = post("/v1/coldstart/item", `{"si": ["`+names[0]+`", "definitely-not-a-token"]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partially-resolved SI list: %d, want 200", resp.StatusCode)
	}

	resp = post("/v1/coldstart/user", `{"gender": "F", "power": 1, "k": 4}`)
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold user POST: %d %s", resp.StatusCode, body)
	}

	// Age index 0 is a real constraint, distinguishable from "absent".
	resp = post("/v1/coldstart/user", `{"age": 0}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold user POST age=0: %d, want 200", resp.StatusCode)
	}

	st := s.Stats()
	if st.ColdItem != 2 || st.ColdUser != 2 {
		t.Fatalf("serve counters after POSTs: %+v", st)
	}
}
