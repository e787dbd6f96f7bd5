package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gridrank"
)

func testServer(t *testing.T) (*Server, *gridrank.Index) {
	t.Helper()
	P, err := gridrank.GenerateProducts(31, gridrank.Uniform, 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	W, err := gridrank.GeneratePreferences(32, gridrank.Uniform, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := gridrank.New(P, W, nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(ix), ix
}

func post(t *testing.T, s *Server, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}
}

func TestIndexMetadata(t *testing.T) {
	s, ix := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/index", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var meta map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &meta); err != nil {
		t.Fatal(err)
	}
	if int(meta["products"].(float64)) != ix.NumProducts() {
		t.Errorf("products = %v", meta["products"])
	}
	if int(meta["dim"].(float64)) != 4 {
		t.Errorf("dim = %v", meta["dim"])
	}
	if meta["resident"] != "heap" {
		t.Errorf("resident = %v, want heap", meta["resident"])
	}
	for _, gone := range []string{"format", "layout"} {
		if _, ok := meta[gone]; ok {
			t.Errorf("metadata still carries the retired %q key", gone)
		}
	}
	// POST must be rejected.
	rec = post(t, s, "/v1/index", map[string]int{})
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/index: %d", rec.Code)
	}
}

func TestReverseTopKByProduct(t *testing.T) {
	s, ix := testServer(t)
	rec := post(t, s, "/v1/reverse-topk", map[string]interface{}{"product": 7, "k": 50})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Preferences []int `json:"preferences"`
		Count       int   `json:"count"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want, err := ix.ReverseTopKCtx(context.Background(), ix.Products()[7], 50)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != len(want) || len(resp.Preferences) != len(want) {
		t.Fatalf("got %d results, want %d", resp.Count, len(want))
	}
	for i := range want {
		if resp.Preferences[i] != want[i] {
			t.Fatalf("result %d = %d, want %d", i, resp.Preferences[i], want[i])
		}
	}
}

func TestReverseTopKEmptyAnswerIsJSONArray(t *testing.T) {
	s, _ := testServer(t)
	// A terrible product (max on every attribute) has an empty RTK set.
	q := []float64{9999, 9999, 9999, 9999}
	rec := post(t, s, "/v1/reverse-topk", map[string]interface{}{"query": q, "k": 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"preferences":[]`) {
		t.Errorf("empty answer should marshal as [], got %s", rec.Body.String())
	}
}

func TestReverseKRanks(t *testing.T) {
	s, ix := testServer(t)
	rec := post(t, s, "/v1/reverse-kranks", map[string]interface{}{"product": 3, "k": 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Matches []struct {
			Preference int `json:"preference"`
			Rank       int `json:"rank"`
			Position   int `json:"position"`
		} `json:"matches"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want, err := ix.ReverseKRanksCtx(context.Background(), ix.Products()[3], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 5 {
		t.Fatalf("got %d matches", len(resp.Matches))
	}
	for i, m := range resp.Matches {
		if m.Preference != want[i].WeightIndex || m.Rank != want[i].Rank || m.Position != want[i].Rank+1 {
			t.Fatalf("match %d = %+v, want %+v", i, m, want[i])
		}
	}
}

func TestTopKAndRank(t *testing.T) {
	s, ix := testServer(t)
	w := ix.Preferences()[0]
	rec := post(t, s, "/v1/topk", map[string]interface{}{"preference": w, "k": 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("topk status %d: %s", rec.Code, rec.Body.String())
	}
	var topkResp struct {
		Products []struct {
			Index int     `json:"Index"`
			Score float64 `json:"Score"`
		} `json:"products"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &topkResp); err != nil {
		t.Fatal(err)
	}
	if len(topkResp.Products) != 3 {
		t.Fatalf("got %d products", len(topkResp.Products))
	}
	best := topkResp.Products[0].Index
	rec = post(t, s, "/v1/rank", map[string]interface{}{"preference": w, "product": best})
	if rec.Code != http.StatusOK {
		t.Fatalf("rank status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"rank":0`) {
		t.Errorf("the top product must have rank 0: %s", rec.Body.String())
	}
}

func TestBadRequests(t *testing.T) {
	s, _ := testServer(t)
	cases := []struct {
		name string
		path string
		body interface{}
		want int
	}{
		{"no query", "/v1/reverse-topk", map[string]int{"k": 5}, http.StatusBadRequest},
		{"both query and product", "/v1/reverse-topk",
			map[string]interface{}{"query": []float64{1, 2, 3, 4}, "product": 1, "k": 5},
			http.StatusBadRequest},
		{"bad k", "/v1/reverse-topk", map[string]interface{}{"product": 0, "k": 0}, http.StatusBadRequest},
		{"wrong dim", "/v1/reverse-kranks",
			map[string]interface{}{"query": []float64{1}, "k": 5}, http.StatusBadRequest},
		{"product out of range", "/v1/reverse-kranks",
			map[string]interface{}{"product": 99999, "k": 5}, http.StatusBadRequest},
		{"unknown field", "/v1/reverse-topk",
			map[string]interface{}{"product": 0, "k": 5, "bogus": true}, http.StatusBadRequest},
		{"missing preference", "/v1/topk", map[string]int{"k": 5}, http.StatusBadRequest},
		{"rank missing preference", "/v1/rank", map[string]interface{}{"product": 0}, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := post(t, s, c.path, c.body)
			if rec.Code != c.want {
				t.Errorf("%s: status %d, want %d (%s)", c.path, rec.Code, c.want, rec.Body.String())
			}
			if !strings.Contains(rec.Body.String(), "error") {
				t.Errorf("error body missing: %s", rec.Body.String())
			}
		})
	}
}

func TestMethodEnforcement(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/reverse-topk", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET query endpoint: %d", rec.Code)
	}
}

func TestMalformedJSON(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/reverse-topk", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d", rec.Code)
	}
}

// Handlers must be safe under concurrent queries (the index is immutable).
func TestConcurrentRequests(t *testing.T) {
	s, _ := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				rec := post(t, s, "/v1/reverse-kranks",
					map[string]interface{}{"product": (g*8 + i) % 500, "k": 3})
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("goroutine %d: status %d", g, rec.Code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
