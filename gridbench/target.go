package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gridrank"
	"gridrank/internal/server"
)

// layer is the entry point a pass drives: each one is a layer lower
// than the one before.
type layer int

const (
	layerHTTP  layer = iota // net/http over loopback into internal/server
	layerServe              // Server.ServeHTTP, in-process
	layerIndex              // gridrank.Index methods
	layerAlgo               // Index queries with the answer cache bypassed
	numLayers
)

var layerNames = [numLayers]string{"http", "serve", "index", "algo"}

// serverConfig is rrqserver's default configuration with the
// benchmark's three exceptions: request logging off (rrqserver logs
// text by default), trace sampling off (also its default), and the
// answer cache on at cacheSize entries for every workload. The flight
// recorder is on, as in every loaded index.
func serverConfig() server.Config {
	return server.Config{CacheSize: cacheSize}
}

// target is one set-up of the system under test: the index loaded from
// the GRI3 file, the server around it, and a loopback listener.
type target struct {
	ix     *gridrank.Index
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	base   string
	client *http.Client

	// mutMu serializes the load generator's mutations, so the epoch
	// each mutation reports is the one it installed.
	mutMu sync.Mutex
}

// openTarget performs one timed set-up: load the catalog with the
// validating heap loader, attach the cache through the server config,
// start the listener and wait for the first /healthz 200.
func openTarget(path string, conns int) (*target, time.Duration, error) {
	start := time.Now()
	ix, err := gridrank.Load(path)
	if err != nil {
		return nil, 0, fmt.Errorf("loading catalog: %w", err)
	}
	t := &target{ix: ix, srv: server.NewWithConfig(ix, serverConfig()), served: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("listening on loopback: %w", err)
	}
	t.base = "http://" + ln.Addr().String()
	t.hs = &http.Server{Handler: t.srv, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(t.served)
		_ = t.hs.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	t.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
	for {
		status, _, err := t.do(http.MethodGet, "/healthz", nil)
		if err == nil && status == http.StatusOK {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.close()
			return nil, 0, fmt.Errorf("server never became healthy: status %d, %v", status, err)
		}
		time.Sleep(time.Millisecond)
	}
	return t, time.Since(start), nil
}

// close stops the listener, waits for the serve goroutine and releases
// the client's connections.
func (t *target) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t.srv.Drain()
	if err := t.hs.Shutdown(ctx); err != nil {
		t.hs.Close()
	}
	<-t.served
	t.client.CloseIdleConnections()
	_ = t.ix.Close() // a heap-loaded index holds nothing to release
}

// do sends one HTTP request over loopback and reads the whole response.
func (t *target) do(method, path string, body []byte) (int, []byte, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, r)
	if err != nil {
		return 0, nil, err
	}
	res, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	return res.StatusCode, b, err
}

// serve sends one request through Server.ServeHTTP in-process.
func (t *target) serve(method, path string, body []byte) (int, []byte) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	t.srv.ServeHTTP(rec, httptest.NewRequest(method, path, r))
	return rec.Code, rec.Body.Bytes()
}

// request renders op o as the HTTP request the API documents.
func request(w *workload, o op) (method, path string, body []byte) {
	vecJSON := func(b []byte, v []float64) []byte {
		b = append(b, '[')
		for i, x := range v {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, x, 'g', -1, 64)
		}
		return append(b, ']')
	}
	switch o.Kind {
	case opRTK, opRKR:
		path = "/v1/reverse-topk"
		if o.Kind == opRKR {
			path = "/v1/reverse-kranks"
		}
		body = vecJSON(append(make([]byte, 0, 160), `{"query":`...), w.Vecs[o.Vec])
		body = strconv.AppendInt(append(body, `,"k":`...), int64(o.K), 10)
		if o.Par > 0 {
			body = strconv.AppendInt(append(body, `,"parallelism":`...), int64(o.Par), 10)
		}
		return http.MethodPost, path, append(body, '}')
	case opInsProduct:
		body = vecJSON([]byte(`{"product":`), w.Vecs[o.Vec])
		return http.MethodPost, "/v1/products", append(body, '}')
	case opInsPref:
		body = vecJSON([]byte(`{"preference":`), w.Vecs[o.Vec])
		return http.MethodPost, "/v1/preferences", append(body, '}')
	case opDelProduct:
		return http.MethodDelete, "/v1/products/" + strconv.Itoa(int(o.ID)), nil
	default:
		return http.MethodDelete, "/v1/preferences/" + strconv.Itoa(int(o.ID)), nil
	}
}

// parseResponse reads a 200 response body into s.
func parseResponse(kind opKind, b []byte, s *sample) error {
	switch kind {
	case opRTK:
		var r struct {
			Preferences []int `json:"preferences"`
		}
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		s.hash = hashTopK(r.Preferences)
	case opRKR:
		var r struct {
			Matches []struct {
				Preference int `json:"preference"`
				Rank       int `json:"rank"`
			} `json:"matches"`
		}
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		ms := make([]rankedPref, len(r.Matches))
		for i, m := range r.Matches {
			ms[i] = rankedPref{Pref: m.Preference, Rank: m.Rank}
		}
		s.hash = hashKRanks(ms)
	default:
		var r struct {
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		s.epoch = r.Epoch
	}
	return nil
}

// prepare builds whatever op o needs before it is sent (the request
// body for the HTTP layers), so the build stays outside the timed call.
type prepared struct {
	method, path string
	body         []byte
}

func (t *target) prepare(l layer, w *workload, o op) prepared {
	if l > layerServe {
		return prepared{}
	}
	m, p, b := request(w, o)
	return prepared{m, p, b}
}

// exec runs op o through layer l and fills s with its outcome. The
// caller times the call; exec returns only once the answer is complete
// (for HTTP, once the whole body is read), and parses it afterwards.
// The returned function, when non-nil, finishes the sample off the
// clock.
func (t *target) exec(ctx context.Context, l layer, w *workload, o op, pr prepared, s *sample) (finish func() error) {
	mut := o.Kind.class() == classMut
	if mut {
		t.mutMu.Lock()
		defer t.mutMu.Unlock()
	}
	switch l {
	case layerHTTP, layerServe:
		var (
			status int
			body   []byte
			err    error
		)
		if l == layerHTTP {
			status, body, err = t.do(pr.method, pr.path, pr.body)
		} else {
			status, body = t.serve(pr.method, pr.path, pr.body)
		}
		s.reqBytes, s.respBytes = int32(len(pr.body)), int32(len(body))
		if err != nil {
			return func() error { return err }
		}
		if status != http.StatusOK {
			return func() error { return fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body)) }
		}
		return func() error { return parseResponse(o.Kind, body, s) }
	}
	var opts []gridrank.QueryOption
	if !mut {
		opts = append(opts, gridrank.WithStats(&s.st))
		if o.Par > 0 {
			// What the server passes: the request's parallelism clamped
			// to its default cap, GOMAXPROCS.
			opts = append(opts, gridrank.WithWorkers(min(int(o.Par), runtime.GOMAXPROCS(0))))
		}
		if l == layerAlgo {
			opts = append(opts, gridrank.WithoutCache())
		}
	}
	q := w.Vecs[o.Vec]
	var err error
	switch o.Kind {
	case opRTK:
		var ids []int
		ids, err = t.ix.ReverseTopKCtx(ctx, q, int(o.K), opts...)
		if err == nil {
			return func() error { s.hash = hashTopK(ids); return nil }
		}
	case opRKR:
		var ms []gridrank.Match
		ms, err = t.ix.ReverseKRanksCtx(ctx, q, int(o.K), opts...)
		if err == nil {
			return func() error {
				rp := make([]rankedPref, len(ms))
				for i, m := range ms {
					rp[i] = rankedPref{Pref: m.WeightIndex, Rank: m.Rank}
				}
				s.hash = hashKRanks(rp)
				return nil
			}
		}
	// Mutations call what the HTTP handlers call: inserts go through
	// the batch methods, deletes through the single-id ones.
	case opInsProduct:
		_, err = t.ix.InsertProductsCtx(ctx, []gridrank.Vector{q})
	case opInsPref:
		_, err = t.ix.InsertPreferencesCtx(ctx, []gridrank.Vector{q})
	case opDelProduct:
		err = t.ix.DeleteProductCtx(ctx, int(o.ID))
	case opDelPref:
		err = t.ix.DeletePreferenceCtx(ctx, int(o.ID))
	}
	if err != nil {
		return func() error { return err }
	}
	s.epoch = t.ix.Epoch()
	return nil
}
