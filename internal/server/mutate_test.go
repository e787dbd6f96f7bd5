package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func del(t *testing.T, s *Server, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var r *httptest.ResponseRecorder
	if body == nil {
		req := httptest.NewRequest(http.MethodDelete, path, nil)
		r = httptest.NewRecorder()
		s.ServeHTTP(r, req)
		return r
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodDelete, path, strings.NewReader(string(raw)))
	r = httptest.NewRecorder()
	s.ServeHTTP(r, req)
	return r
}

func decodeInto(t *testing.T, rec *httptest.ResponseRecorder, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("bad response %q: %v", rec.Body.String(), err)
	}
}

func TestInsertProductEndpoint(t *testing.T) {
	s, ix := testServer(t)
	before := ix.NumProducts()

	rec := post(t, s, "/v1/products", map[string]interface{}{
		"product": []float64{1, 2, 3, 4},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", rec.Code, rec.Body.String())
	}
	var resp insertResponse
	decodeInto(t, rec, &resp)
	if resp.FirstID != before || resp.Inserted != 1 || resp.Total != before+1 {
		t.Fatalf("insert response %+v (before=%d)", resp, before)
	}
	if resp.Epoch == 0 {
		t.Fatal("insert did not advance the epoch")
	}
	if ix.NumProducts() != before+1 {
		t.Fatalf("index has %d products, want %d", ix.NumProducts(), before+1)
	}

	// Batch insert occupies consecutive ids.
	rec = post(t, s, "/v1/products", map[string]interface{}{
		"products": [][]float64{{1, 1, 1, 1}, {2, 2, 2, 2}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch insert: %d %s", rec.Code, rec.Body.String())
	}
	decodeInto(t, rec, &resp)
	if resp.FirstID != before+1 || resp.Inserted != 2 || resp.Total != before+3 {
		t.Fatalf("batch insert response %+v", resp)
	}

	// Malformed bodies map to 400.
	for name, body := range map[string]interface{}{
		"wrong dim":       map[string]interface{}{"product": []float64{1, 2}},
		"negative attr":   map[string]interface{}{"product": []float64{1, -2, 3, 4}},
		"both fields":     map[string]interface{}{"product": []float64{1, 2, 3, 4}, "products": [][]float64{{1, 2, 3, 4}}},
		"neither field":   map[string]interface{}{},
		"nan-bearing":     map[string]interface{}{"product": []interface{}{1, "x", 3, 4}},
		"empty batch row": map[string]interface{}{"products": [][]float64{{}}},
	} {
		if rec := post(t, s, "/v1/products", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}
}

func TestInsertPreferenceEndpoint(t *testing.T) {
	s, ix := testServer(t)
	before := ix.NumPreferences()

	rec := post(t, s, "/v1/preferences", map[string]interface{}{
		"preference": []float64{0.25, 0.25, 0.25, 0.25},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", rec.Code, rec.Body.String())
	}
	var resp insertResponse
	decodeInto(t, rec, &resp)
	if resp.FirstID != before || resp.Total != before+1 || ix.NumPreferences() != before+1 {
		t.Fatalf("insert response %+v (before=%d)", resp, before)
	}

	// Weights must sum to 1.
	rec = post(t, s, "/v1/preferences", map[string]interface{}{
		"preference": []float64{0.5, 0.5, 0.5, 0.5},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("non-normalized preference: %d", rec.Code)
	}
}

func TestDeleteEndpoints(t *testing.T) {
	s, ix := testServer(t)
	nP, nW := ix.NumProducts(), ix.NumPreferences()

	rec := del(t, s, "/v1/products/3", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete product: %d %s", rec.Code, rec.Body.String())
	}
	var resp deleteResponse
	decodeInto(t, rec, &resp)
	if resp.Deleted != 1 || resp.Total != nP-1 || ix.NumProducts() != nP-1 {
		t.Fatalf("delete response %+v", resp)
	}

	// Batch delete by ids.
	rec = del(t, s, "/v1/preferences", map[string]interface{}{"ids": []int{0, 5, 9}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch delete: %d %s", rec.Code, rec.Body.String())
	}
	decodeInto(t, rec, &resp)
	if resp.Deleted != 3 || resp.Total != nW-3 || ix.NumPreferences() != nW-3 {
		t.Fatalf("batch delete response %+v", resp)
	}

	// Unknown id maps to 404, bad id syntax to 400, duplicate batch
	// ids to 400.
	if rec := del(t, s, "/v1/products/999999", nil); rec.Code != http.StatusNotFound {
		t.Errorf("out-of-range id: %d, want 404", rec.Code)
	}
	if rec := del(t, s, "/v1/products/notanumber", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("non-numeric id: %d, want 400", rec.Code)
	}
	if rec := del(t, s, "/v1/products", map[string]interface{}{"ids": []int{1, 1}}); rec.Code != http.StatusBadRequest {
		t.Errorf("duplicate ids: %d, want 400", rec.Code)
	}
}

func TestDeleteLastElementConflicts(t *testing.T) {
	s, ix := testServer(t)
	// Drain preferences down to one via the batch endpoint, then confirm
	// deleting the survivor is a 409.
	n := ix.NumPreferences()
	ids := make([]int, n-1)
	for i := range ids {
		ids[i] = i + 1
	}
	if rec := del(t, s, "/v1/preferences", map[string]interface{}{"ids": ids}); rec.Code != http.StatusOK {
		t.Fatalf("drain: %d %s", rec.Code, rec.Body.String())
	}
	if rec := del(t, s, "/v1/preferences/0", nil); rec.Code != http.StatusConflict {
		t.Fatalf("deleting last preference: %d, want 409", rec.Code)
	}
}

// TestMutationsVisibleToQueries exercises the end-to-end path: a product
// inserted over HTTP is immediately queryable by id, and after deleting
// it the id space shrinks back.
func TestMutationsVisibleToQueries(t *testing.T) {
	s, ix := testServer(t)
	n := ix.NumProducts()

	rec := post(t, s, "/v1/products", map[string]interface{}{
		"product": []float64{5, 5, 5, 5},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("insert: %d", rec.Code)
	}
	rec = post(t, s, "/v1/reverse-topk", map[string]interface{}{
		"product": n, "k": 5,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("query of inserted product: %d %s", rec.Code, rec.Body.String())
	}

	if rec := del(t, s, "/v1/products/"+strconv.Itoa(n), nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	rec = post(t, s, "/v1/reverse-topk", map[string]interface{}{
		"product": n, "k": 5,
	})
	if rec.Code == http.StatusOK {
		t.Fatal("deleted product still queryable by id")
	}
}

func TestMutationMetrics(t *testing.T) {
	s, _ := testServer(t)
	post(t, s, "/v1/products", map[string]interface{}{"product": []float64{1, 2, 3, 4}})
	post(t, s, "/v1/products", map[string]interface{}{"products": [][]float64{{1, 1, 1, 1}, {2, 2, 2, 2}}})
	del(t, s, "/v1/preferences/0", nil)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`gridrank_mutations_total{kind="insert_product"} 3`,
		`gridrank_mutations_total{kind="delete_preference"} 1`,
		"gridrank_index_epoch 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestIndexMetadataEpoch(t *testing.T) {
	s, ix := testServer(t)
	readEpoch := func() float64 {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/index", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("index metadata: %d", rec.Code)
		}
		var meta map[string]interface{}
		decodeInto(t, rec, &meta)
		e, ok := meta["epoch"].(float64)
		if !ok {
			t.Fatalf("no epoch in metadata: %v", meta)
		}
		return e
	}
	if e := readEpoch(); e != 0 {
		t.Fatalf("fresh index epoch = %v", e)
	}
	post(t, s, "/v1/products", map[string]interface{}{"product": []float64{1, 2, 3, 4}})
	if e := readEpoch(); e != 1 {
		t.Fatalf("post-mutation epoch = %v, want 1", e)
	}
	if ix.Epoch() != 1 {
		t.Fatalf("index epoch = %d", ix.Epoch())
	}
}

// metricValue returns the value of an unlabelled series in a classic
// /metrics scrape.
func metricValue(t *testing.T, body, name string) int {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: bad value %q", name, v)
			}
			return n
		}
	}
	t.Fatalf("%s missing from /metrics:\n%s", name, body)
	return 0
}

// TestSingleVectorInsertIsIncremental pins that a single-vector POST
// to /v1/products or /v1/preferences takes the incremental mutation
// path under a live cache and subscription: no cache flush, no full
// subscription recompute, one diff pass per request.
func TestSingleVectorInsertIsIncremental(t *testing.T) {
	s := smallServer(t, Config{CacheSize: 64})
	if rec := post(t, s, "/v1/subscriptions", map[string]interface{}{
		"kind": "reverse-kranks", "product": 7, "k": 3,
	}); rec.Code != http.StatusCreated {
		t.Fatalf("subscribe: %d %s", rec.Code, rec.Body.String())
	}
	if rec := post(t, s, "/v1/reverse-topk", map[string]interface{}{"product": 7, "k": 5}); rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
	}

	for i, req := range []struct {
		path string
		body map[string]interface{}
	}{
		{"/v1/products", map[string]interface{}{"product": []float64{0.2, 0.3, 0.4}}},
		{"/v1/preferences", map[string]interface{}{"preference": []float64{0.2, 0.3, 0.5}}},
	} {
		if rec := post(t, s, req.path, req.body); rec.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", req.path, rec.Code, rec.Body.String())
		}
		body := getMetricsBody(t, s)
		if n := metricValue(t, body, "gridrank_cache_flushes_total"); n != 0 {
			t.Errorf("after POST %s: gridrank_cache_flushes_total = %d, want 0", req.path, n)
		}
		if n := metricValue(t, body, "gridrank_sub_full_passes_total"); n != 0 {
			t.Errorf("after POST %s: gridrank_sub_full_passes_total = %d, want 0", req.path, n)
		}
		if n := metricValue(t, body, "gridrank_sub_diff_passes_total"); n != i+1 {
			t.Errorf("after POST %s: gridrank_sub_diff_passes_total = %d, want %d", req.path, n, i+1)
		}
	}
}
