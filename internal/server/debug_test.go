package server

// Tests for the forensic surface: the live /metrics scrape in both
// exposition flavors (validated by the strict parser in
// internal/metrics/metricstest, exemplars included), the /debug/flight
// digest endpoint, the /debug/bundle tar.gz (round-tripped through
// internal/diag and manifest-validated), and the OTLP exporter wired
// end-to-end through Config against a fake collector.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gridrank/internal/diag"
	"gridrank/internal/metrics/metricstest"
)

func TestTraceIDFromHeader(t *testing.T) {
	const id = "4bf92f3577b34da6a3ce929d0e0e4736"
	for tp, want := range map[string]string{
		"00-" + id + "-00f067aa0ba902b7-01": id,
		"00-" + id + "-00f067aa0ba902b7-00": id,
		"":                                  "",
		"garbage":                           "",
		"00-" + id:                          "", // no span segment
		"0x-" + id + "-00f067aa0ba902b7-01": id, // version not validated, only shape
	} {
		if got := traceIDFromHeader(tp); got != want {
			t.Errorf("traceIDFromHeader(%q) = %q, want %q", tp, got, want)
		}
	}
}

func TestAcceptsOpenMetrics(t *testing.T) {
	for accept, want := range map[string]bool{
		"":                             false,
		"text/plain":                   false,
		"application/openmetrics-text": true,
		"application/openmetrics-text; version=1.0.0; charset=utf-8": true,
		"text/plain, application/openmetrics-text;q=0.9":             true,
		"application/openmetrics-json":                               false,
	} {
		if got := acceptsOpenMetrics(accept); got != want {
			t.Errorf("acceptsOpenMetrics(%q) = %v, want %v", accept, got, want)
		}
	}
}

// TestLiveScrapeOpenMetrics scrapes a real HTTP server end-to-end: a
// traced query's trace ID (from the response traceparent header) must
// come back as an exemplar on a reverse_topk latency bucket, the scrape
// must carry the negotiated OpenMetrics content type, and the whole
// body must survive the strict parser — # EOF, exemplar syntax, label
// escaping and all.
func TestLiveScrapeOpenMetrics(t *testing.T) {
	s := tracedServer(t, Config{TraceSampleRate: 1})
	srv := httptest.NewServer(s)
	defer srv.Close()

	body, _ := json.Marshal(map[string]interface{}{"product": 3, "k": 10})
	resp, err := http.Post(srv.URL+"/v1/reverse-topk", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	traceID := traceIDFromHeader(resp.Header.Get("traceparent"))
	if traceID == "" {
		t.Fatalf("traced query returned no traceparent header (got %q)", resp.Header.Get("traceparent"))
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	scrape, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(scrape.Body)
	scrape.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := scrape.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("Content-Type = %q, want application/openmetrics-text", ct)
	}

	families := metricstest.ParseOpenMetrics(t, string(raw))
	hist := families["gridrank_request_duration_seconds"]
	if hist == nil {
		t.Fatal("latency histogram family missing from live scrape")
	}
	found := false
	for _, smp := range hist.Samples {
		if smp.Exemplar == nil || smp.Labels["endpoint"] != "reverse_topk" {
			continue
		}
		found = true
		if smp.Exemplar.Labels["trace_id"] != traceID {
			t.Errorf("exemplar trace_id = %q, want %q", smp.Exemplar.Labels["trace_id"], traceID)
		}
		le, err := metricstest.ParseValue(smp.Labels["le"])
		if err != nil {
			t.Fatalf("bad le %q", smp.Labels["le"])
		}
		if smp.Exemplar.Value > le {
			t.Errorf("exemplar value %g above its bucket bound %g", smp.Exemplar.Value, le)
		}
	}
	if !found {
		t.Error("no exemplar on any reverse_topk latency bucket")
	}
	// The counter family must be announced by base name in this flavor.
	if families["gridrank_requests_total"] != nil || families["gridrank_requests"] == nil {
		t.Error("OpenMetrics counter announcement not on base name")
	}
}

// TestLiveScrapeClassicDefault checks that without Accept negotiation
// the scrape is classic 0.0.4: parseable, exemplar-free, no # EOF.
func TestLiveScrapeClassicDefault(t *testing.T) {
	s := tracedServer(t, Config{TraceSampleRate: 1})
	postTraceparent(t, s, "/v1/reverse-topk", "", map[string]interface{}{"product": 1, "k": 5})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	text := rec.Body.String()
	metricstest.ParseExposition(t, text) // fails on exemplars or # EOF
	if strings.Contains(text, " # {") {
		t.Error("classic scrape leaked exemplar syntax")
	}
}

func TestDebugFlightEndpoint(t *testing.T) {
	s, _ := testServer(t)
	post(t, s, "/v1/reverse-topk", map[string]interface{}{"product": 2, "k": 5})
	rec := post(t, s, "/v1/products", map[string]interface{}{"products": [][]float64{{1, 2, 3, 4}}})
	if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
		t.Fatalf("insert status %d: %s", rec.Code, rec.Body.String())
	}

	frec := httptest.NewRecorder()
	s.AdminHandler().ServeHTTP(frec, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if frec.Code != http.StatusOK {
		t.Fatalf("GET /debug/flight: %d", frec.Code)
	}
	var resp struct {
		Enabled bool `json:"enabled"`
		Counts  struct {
			Recorded  int64 `json:"Recorded"`
			Queries   int64 `json:"Queries"`
			Mutations int64 `json:"Mutations"`
		}
		Records []map[string]interface{} `json:"records"`
	}
	if err := json.Unmarshal(frec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("flight response not JSON: %v", err)
	}
	if !resp.Enabled {
		t.Fatal("flight recorder disabled on a default index")
	}
	if resp.Counts.Queries < 1 || resp.Counts.Mutations < 1 {
		t.Errorf("flight counts missing traffic: %+v", resp.Counts)
	}
	if len(resp.Records) == 0 {
		t.Error("flight ring empty after traffic")
	}
}

// TestDebugRoutesAdminOnly pins where the forensic routes live: each
// one is a 404 on the public handler, which faces API clients, and is
// served by AdminHandler, which rrqserver mounts on its operator
// listener.
func TestDebugRoutesAdminOnly(t *testing.T) {
	s := tracedServer(t, Config{TraceSampleRate: 1})
	rec := post(t, s, "/v1/reverse-topk", map[string]interface{}{"product": 2, "k": 5})
	var resp struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.TraceID == "" {
		t.Fatalf("sampled query returned no trace id: %s (%v)", rec.Body.String(), err)
	}
	for _, path := range []string{"/debug/traces", "/debug/traces/" + resp.TraceID, "/debug/flight", "/debug/bundle"} {
		pub := httptest.NewRecorder()
		s.ServeHTTP(pub, httptest.NewRequest(http.MethodGet, path, nil))
		if pub.Code != http.StatusNotFound {
			t.Errorf("public GET %s: %d, want 404", path, pub.Code)
		}
		adm := httptest.NewRecorder()
		s.AdminHandler().ServeHTTP(adm, httptest.NewRequest(http.MethodGet, path, nil))
		if adm.Code != http.StatusOK {
			t.Errorf("admin GET %s: %d, want 200", path, adm.Code)
		}
	}
}

// TestDebugBundle fetches the diagnostics bundle and validates it the
// way rrqdiag would: read the tar.gz, check the manifest hashes both
// ways, and spot-check each artifact is the real thing — the metrics
// snapshot parses as strict OpenMetrics and the config is sanitized.
func TestDebugBundle(t *testing.T) {
	s := tracedServer(t, Config{TraceSampleRate: 1})
	post(t, s, "/v1/reverse-topk", map[string]interface{}{"product": 2, "k": 5})

	rec := httptest.NewRecorder()
	s.AdminHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/bundle", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/bundle: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/gzip" {
		t.Errorf("Content-Type = %q", ct)
	}

	m, files, err := diag.ReadBundle(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if err := diag.Validate(m, files); err != nil {
		t.Fatalf("bundle failed manifest validation: %v", err)
	}
	if m.Source != "server" {
		t.Errorf("manifest source = %q", m.Source)
	}
	for _, name := range []string{
		"goroutines.txt", "runtime.json", "metrics.om", "flight.json",
		"traces.json", "index.json", "subscriptions.json", "config.json",
	} {
		if files[name] == nil {
			t.Errorf("bundle missing %s (have %v)", name, m.Entries)
		}
	}

	metricstest.ParseOpenMetrics(t, string(files["metrics.om"]))
	if !strings.Contains(string(files["goroutines.txt"]), "goroutine ") {
		t.Error("goroutines.txt is not a goroutine dump")
	}
	var flightDoc struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal(files["flight.json"], &flightDoc); err != nil || !flightDoc.Enabled {
		t.Errorf("flight.json malformed (err %v): %s", err, files["flight.json"])
	}
	var cfg map[string]interface{}
	if err := json.Unmarshal(files["config.json"], &cfg); err != nil {
		t.Fatalf("config.json not JSON: %v", err)
	}
	if cfg["otlpConfigured"] != false {
		t.Errorf("otlpConfigured = %v, want false", cfg["otlpConfigured"])
	}
	for k := range cfg {
		if strings.Contains(strings.ToLower(k), "endpoint") {
			t.Errorf("sanitized config leaks key %q", k)
		}
	}
}

// TestOTLPExportThroughServer wires Config.OTLPEndpoint against a fake
// collector and checks a traced query's spans arrive after Drain, the
// scrape reports exporter counters, and the bundle's config redacts the
// collector URL down to a boolean.
func TestOTLPExportThroughServer(t *testing.T) {
	var mu sync.Mutex
	var bodies [][]byte
	col := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/traces" {
			t.Errorf("collector got path %q", r.URL.Path)
		}
		raw, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, raw)
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer col.Close()

	s := tracedServer(t, Config{TraceSampleRate: 1, OTLPEndpoint: col.URL})
	rec := postTraceparent(t, s, "/v1/reverse-topk", "", map[string]interface{}{"product": 4, "k": 8})
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d", rec.Code)
	}
	traceID := traceIDFromHeader(rec.Header().Get("traceparent"))
	if traceID == "" {
		t.Fatal("no traceparent on traced response")
	}

	s.Drain() // flushes the exporter
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(bodies)
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	all := strings.Join(func() []string {
		out := make([]string, len(bodies))
		for i, b := range bodies {
			out[i] = string(b)
		}
		return out
	}(), "\n")
	mu.Unlock()
	if !strings.Contains(all, traceID) {
		t.Errorf("collector never received trace %s; payloads: %.400s", traceID, all)
	}
	if !strings.Contains(all, `"service.name"`) {
		t.Error("export missing service.name resource attribute")
	}

	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := mrec.Body.String()
	if !strings.Contains(body, "gridrank_otlp_spans_enqueued_total 1") {
		t.Errorf("scrape missing OTLP enqueue counter:\n%s", body)
	}

	brec := httptest.NewRecorder()
	s.AdminHandler().ServeHTTP(brec, httptest.NewRequest(http.MethodGet, "/debug/bundle", nil))
	_, files, err := diag.ReadBundle(bytes.NewReader(brec.Body.Bytes()))
	if err != nil {
		t.Fatalf("bundle after drain: %v", err)
	}
	if strings.Contains(string(files["config.json"]), col.URL) {
		t.Error("sanitized config leaks the collector URL")
	}
	if !strings.Contains(string(files["config.json"]), `"otlpConfigured": true`) &&
		!strings.Contains(string(files["config.json"]), `"otlpConfigured":true`) {
		t.Errorf("config.json should record otlpConfigured=true: %s", files["config.json"])
	}
}
