package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridrank"
	"gridrank/internal/trace"
)

// tracedServer builds a test server with explicit tracing configuration.
func tracedServer(t *testing.T, cfg Config) *Server {
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
	return NewWithConfig(ix, cfg)
}

// postTraceparent is post with an optional traceparent request header.
func postTraceparent(t *testing.T, s *Server, path, traceparent string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// getTrace fetches one stored trace by ID, failing on any status but
// want.
func getTrace(t *testing.T, s *Server, id string, want int) *trace.TraceData {
	t.Helper()
	rec := httptest.NewRecorder()
	s.AdminHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces/"+id, nil))
	if rec.Code != want {
		t.Fatalf("GET /debug/traces/%s: %d (want %d): %s", id, rec.Code, want, rec.Body.String())
	}
	if want != http.StatusOK {
		return nil
	}
	var td trace.TraceData
	if err := json.Unmarshal(rec.Body.Bytes(), &td); err != nil {
		t.Fatal(err)
	}
	return &td
}

func listTraces(t *testing.T, s *Server) tracesResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	s.AdminHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces: %d", rec.Code)
	}
	var resp tracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// spanNames indexes a stored trace's spans by name.
func spanNames(td *trace.TraceData) map[string]trace.SpanData {
	out := make(map[string]trace.SpanData, len(td.Spans))
	for _, sp := range td.Spans {
		out[sp.Name] = sp
	}
	return out
}

// TestSampledQueryEndToEnd is the acceptance path: a rate-1 server
// returns trace_id in the response, and the stored trace carries the
// snapshot, scan (with case breakdown) and merge spans.
func TestSampledQueryEndToEnd(t *testing.T) {
	s := tracedServer(t, Config{TraceSampleRate: 1})
	rec := postTraceparent(t, s, "/v1/reverse-kranks", "", map[string]interface{}{"product": 3, "k": 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("query failed: %d %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Matches []json.RawMessage `json:"matches"`
		TraceID string            `json:"trace_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.TraceID) != 32 {
		t.Fatalf("response trace_id %q is not a 32-hex trace ID", resp.TraceID)
	}
	if tp := rec.Header().Get("traceparent"); !strings.Contains(tp, resp.TraceID) {
		t.Errorf("traceparent response header %q does not carry trace ID %s", tp, resp.TraceID)
	}

	td := getTrace(t, s, resp.TraceID, http.StatusOK)
	if td.TraceID != resp.TraceID {
		t.Fatalf("stored trace ID %s != response %s", td.TraceID, resp.TraceID)
	}
	spans := spanNames(td)
	for _, name := range []string{"reverse_kranks", "decode", "snapshot", "scan", "merge", "encode"} {
		if _, ok := spans[name]; !ok {
			t.Errorf("trace missing span %q; have %v", name, td.Spans)
		}
	}
	scan := spans["scan"]
	for _, attr := range []string{"case1_filtered", "case2_filtered", "case3_refined", "filter_rate", "heap_admits", "cutoff_final"} {
		if _, ok := scan.Attrs[attr]; !ok {
			t.Errorf("scan span missing attr %q: %+v", attr, scan.Attrs)
		}
	}
	root := spans["reverse_kranks"]
	if root.Attrs["k"] != float64(5) { // JSON numbers decode as float64
		t.Errorf("root span k attr = %v", root.Attrs["k"])
	}
	for _, attr := range []string{"filtered", "refined", "filter_rate"} {
		if _, ok := root.Attrs[attr]; !ok {
			t.Errorf("root span missing %q: %+v", attr, root.Attrs)
		}
	}

	// The listing shows it too.
	list := listTraces(t, s)
	if list.Kept < 1 || len(list.Traces) < 1 || list.Traces[0].TraceID != resp.TraceID {
		t.Errorf("listing does not lead with the trace: %+v", list)
	}
}

// TestUnsampledQueryLeavesNoTrace checks the off path: no trace_id, no
// stored trace, 404 on lookup.
func TestUnsampledQueryLeavesNoTrace(t *testing.T) {
	s := tracedServer(t, Config{}) // tracing disabled entirely
	rec := postTraceparent(t, s, "/v1/reverse-topk", "", map[string]interface{}{"product": 3, "k": 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("query failed: %d", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "trace_id") {
		t.Errorf("untraced response advertises a trace: %s", rec.Body.String())
	}
	if rec.Header().Get("traceparent") != "" {
		t.Error("untraced response carries a traceparent header")
	}
	list := listTraces(t, s)
	if len(list.Traces) != 0 || list.Started != 0 {
		t.Errorf("disabled tracer stored traces: %+v", list)
	}
	getTrace(t, s, "00000000000000000000000000000001", http.StatusNotFound)
}

// TestSlowQueryAlwaysCaptured checks tail-based capture: rate 0 but a
// 1ns threshold stores every query and logs it.
func TestSlowQueryAlwaysCaptured(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	s := tracedServer(t, Config{SlowQuery: time.Nanosecond, Logger: logger})
	rec := postTraceparent(t, s, "/v1/reverse-kranks", "", map[string]interface{}{"product": 7, "k": 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("query failed: %d", rec.Code)
	}
	// Tail-only capture: the response must NOT advertise a trace ID (the
	// keep decision postdates the response), but the trace must be
	// stored and logged.
	if strings.Contains(rec.Body.String(), "trace_id") {
		t.Errorf("tail-only capture leaked trace_id into the response: %s", rec.Body.String())
	}
	list := listTraces(t, s)
	if len(list.Traces) != 1 || !list.Traces[0].Slow {
		t.Fatalf("slow query not captured: %+v", list)
	}
	id := list.Traces[0].TraceID
	log := logBuf.String()
	if !strings.Contains(log, "slow query") || !strings.Contains(log, id) {
		t.Errorf("slow-query log line missing (want trace %s): %q", id, log)
	}
	if !strings.Contains(log, "scan.case1_filtered") {
		t.Errorf("slow-query log line missing case breakdown: %q", log)
	}
	td := getTrace(t, s, id, http.StatusOK)
	if td.Sampled {
		t.Error("tail-captured trace claims head-sampled")
	}
	if _, ok := spanNames(td)["scan"]; !ok {
		t.Errorf("slow trace missing scan span: %+v", td.Spans)
	}

	// A fast query on a high-threshold server must be dropped.
	s2 := tracedServer(t, Config{SlowQuery: time.Hour})
	postTraceparent(t, s2, "/v1/reverse-kranks", "", map[string]interface{}{"product": 7, "k": 3})
	list = listTraces(t, s2)
	if len(list.Traces) != 0 || list.Dropped != 1 {
		t.Errorf("fast query not dropped under 1h threshold: %+v", list)
	}
}

// TestTraceparentPropagation checks the W3C header contract: a valid
// header reuses the remote trace ID in the response, the store and the
// propagated header; a malformed one gets a fresh ID and no error.
func TestTraceparentPropagation(t *testing.T) {
	s := tracedServer(t, Config{SlowQuery: time.Hour}) // head sampling off
	const remoteID = "0af7651916cd43dd8448eb211c80319c"
	rec := postTraceparent(t, s, "/v1/reverse-topk",
		"00-"+remoteID+"-b7ad6b7169203331-01",
		map[string]interface{}{"product": 2, "k": 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("query failed: %d %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != remoteID {
		t.Fatalf("remote trace ID not reused: got %q", resp.TraceID)
	}
	if tp := rec.Header().Get("traceparent"); !strings.HasPrefix(tp, "00-"+remoteID+"-") {
		t.Errorf("traceparent response header does not propagate the remote ID: %q", tp)
	}
	td := getTrace(t, s, remoteID, http.StatusOK)
	if !td.Remote {
		t.Error("stored trace not flagged remoteParent")
	}

	// Malformed headers: 200, fresh trace behaviour (here: no trace at
	// all, since head sampling is off and the query is fast... but the
	// hour threshold records then drops — so no stored remnant either).
	for _, bad := range []string{
		"00-" + strings.ToUpper(remoteID) + "-b7ad6b7169203331-01", // uppercase
		"ff-" + remoteID + "-b7ad6b7169203331-01",                  // version ff
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",  // zero ID
		"not a traceparent",
	} {
		rec := postTraceparent(t, s, "/v1/reverse-topk", bad, map[string]interface{}{"product": 2, "k": 5})
		if rec.Code != http.StatusOK {
			t.Errorf("malformed traceparent %q rejected with %d", bad, rec.Code)
		}
		if strings.Contains(rec.Body.String(), remoteID) {
			t.Errorf("malformed traceparent %q adopted the remote ID", bad)
		}
	}
}

// TestBatchTracing checks a traced batch lands every query's spans on
// one trace.
func TestBatchTracing(t *testing.T) {
	s := tracedServer(t, Config{TraceSampleRate: 1})
	rec := postTraceparent(t, s, "/v1/batch", "", map[string]interface{}{
		"queries": []map[string]interface{}{
			{"type": "reverse-topk", "product": 1, "k": 5},
			{"type": "reverse-kranks", "product": 2, "k": 3},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch failed: %d %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == "" {
		t.Fatal("batch response has no trace_id")
	}
	td := getTrace(t, s, resp.TraceID, http.StatusOK)
	var scans, snapshots int
	for _, sp := range td.Spans {
		switch sp.Name {
		case "scan":
			scans++
		case "snapshot":
			snapshots++
		}
	}
	if scans != 2 || snapshots != 2 {
		t.Errorf("batch trace has %d scan / %d snapshot spans, want 2/2: %+v", scans, snapshots, td.Spans)
	}
}

// TestTraceMetricsExported checks the scrape reflects tracer activity.
func TestTraceMetricsExported(t *testing.T) {
	s := tracedServer(t, Config{TraceSampleRate: 1})
	postTraceparent(t, s, "/v1/reverse-topk", "", map[string]interface{}{"product": 1, "k": 5})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"gridrank_traces_started_total 1",
		"gridrank_traces_kept_total 1",
		"gridrank_go_goroutines",
		"gridrank_build_info",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}
