package main

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"minup/internal/catalog"
	"minup/internal/constraint"
	"minup/internal/lattice"
	"minup/internal/obs"
)

// newTestServer builds a pure policy-catalog server — minupd without
// -lattice/-constraints — with the full middleware stack and default
// serving policy, mirroring main().
func newTestServer(t *testing.T) (*server, http.Handler, *strings.Builder) {
	t.Helper()
	return newTestServerCfg(t, defaultConfig())
}

// newTestServerCfg is newTestServer with an explicit serving policy, for
// the admission/degradation tests.
func newTestServerCfg(t *testing.T, cfg config) (*server, http.Handler, *strings.Builder) {
	t.Helper()
	reg := obs.NewRegistry()
	cat, err := catalog.Open(catalog.Options{Metrics: reg, Flight: cfg.flight, Fault: cfg.fault})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	srv := newServer(cat, reg, cfg)
	logBuf := &strings.Builder{}
	logger := slog.New(slog.NewJSONHandler(logBuf, nil))
	return srv, srv.routes(logger), logBuf
}

// The Figure 2(a) fixtures, the static instance the smoke scripts serve.
const (
	fig2Lattice     = "../../testdata/lattice_fig1b.txt"
	fig2Constraints = "../../testdata/constraints_fig2.txt"
)

// newStaticServer is newTestServer started with -lattice/-constraints on
// the Figure 2(a) fixtures: the instance is stored as the static policy the
// way main stores it, and the boot refresh has finished, so its memo is
// warm before the first request.
func newStaticServer(t *testing.T) (*server, http.Handler, *strings.Builder) {
	t.Helper()
	return newStaticServerCfg(t, defaultConfig())
}

// newStaticServerCfg is newStaticServer with an explicit serving policy.
func newStaticServerCfg(t *testing.T, cfg config) (*server, http.Handler, *strings.Builder) {
	t.Helper()
	srv, h, logBuf := newTestServerCfg(t, cfg)
	if _, err := storeStatic(srv.cat, fig2Lattice, fig2Constraints); err != nil {
		t.Fatal(err)
	}
	if err := srv.cat.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	return srv, h, logBuf
}

// fig2Set parses the Figure 2(a) fixtures independently of the server, as
// the oracle degraded answers are verified against.
func fig2Set(t *testing.T) *constraint.Set {
	t.Helper()
	lat, err := os.ReadFile(fig2Lattice)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := os.ReadFile(fig2Constraints)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lattice.Parse(strings.NewReader(string(lat)))
	if err != nil {
		t.Fatal(err)
	}
	set := constraint.NewSet(l)
	if err := set.ParseString(string(cons)); err != nil {
		t.Fatal(err)
	}
	return set
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestSolveEndpoint(t *testing.T) {
	_, h, _ := newStaticServer(t)
	rec := get(t, h, "/solve")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /solve = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if rec.Header().Get("X-Request-Id") == "" {
		t.Fatal("no X-Request-Id header")
	}
	var out policySolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != staticPolicy || out.CacheHit {
		t.Fatalf("/solve answered policy %q cache_hit=%v, want a fresh solve of %q", out.Name, out.CacheHit, staticPolicy)
	}
	if out.Assignment["B"] != "L5" {
		t.Fatalf("λ(B) = %q, want L5", out.Assignment["B"])
	}
	if out.TraceID != "" {
		t.Fatalf("untraced solve reported trace id %q", out.TraceID)
	}
}

func TestSolveEndpointTraced(t *testing.T) {
	_, h, logBuf := newStaticServer(t)
	rec := get(t, h, "/solve?trace=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /solve?trace=1 = %d: %s", rec.Code, rec.Body.String())
	}
	var out policySolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID == "" {
		t.Fatal("traced solve did not report a trace id")
	}
	if !strings.Contains(logBuf.String(), out.TraceID) {
		t.Fatalf("access log does not carry trace id %s:\n%s", out.TraceID, logBuf.String())
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, h, _ := newStaticServer(t)
	for _, path := range []string{"/solve", "/metrics", "/healthz", "/readyz", "/trace"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader("{}")))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); allow != http.MethodGet {
			t.Errorf("POST %s Allow = %q, want GET", path, allow)
		}
	}
}

func TestMetricsEndpointJSON(t *testing.T) {
	srv, h, _ := newStaticServer(t)
	// The boot refresh solved the static policy once already (the helper
	// flushed it), so the request's own solve is the delta.
	before := srv.reg.Snapshot().Counters["solve.count"]
	get(t, h, "/solve")
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["solve.count"] - before; got != 1 {
		t.Fatalf("solve.count moved by %d over one /solve, want 1", got)
	}
	if _, ok := snap.Gauges["solve.pool.sessions"]; !ok {
		t.Fatalf("gauges %v missing solve.pool.sessions", snap.Gauges)
	}
	if _, ok := snap.Gauges["http.in_flight"]; !ok {
		t.Fatalf("gauges %v missing http.in_flight", snap.Gauges)
	}
}

func TestMetricsEndpointPrometheus(t *testing.T) {
	_, h, _ := newStaticServer(t)
	get(t, h, "/solve")
	rec := get(t, h, "/metrics?format=prometheus")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics?format=prometheus = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if body == "" {
		t.Fatal("empty Prometheus body")
	}
	for _, want := range []string{
		"# TYPE solve_count counter",
		"# TYPE http_in_flight gauge",
		"solve_duration_us_bucket{le=\"+Inf\"}",
		"http_solve_duration_us_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("Prometheus body missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsPreRegisteredBeforeTraffic(t *testing.T) {
	// A scrape before the first request must already see the per-route
	// series (the middleware registers them at wrap time).
	_, h, _ := newTestServer(t)
	rec := get(t, h, "/metrics?format=prometheus")
	body := rec.Body.String()
	for _, want := range []string{"http_solve_duration_us", "http_trace_duration_us"} {
		if !strings.Contains(body, want) {
			t.Errorf("pre-traffic scrape missing %q:\n%s", want, body)
		}
	}
}

func TestTraceEndpointJSON(t *testing.T) {
	_, h, _ := newStaticServer(t)
	rec := get(t, h, "/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /trace = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var out traceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID == "" {
		t.Fatal("no trace id")
	}
	if out.Spans.Name != "request" || len(out.Spans.Children) == 0 {
		t.Fatalf("span tree root %+v", out.Spans)
	}
	if out.Spans.Children[0].Name != "solve" {
		t.Fatalf("first child %q, want solve", out.Spans.Children[0].Name)
	}
}

func TestTraceEndpointChromeAndFlame(t *testing.T) {
	_, h, _ := newStaticServer(t)
	rec := get(t, h, "/trace?format=chrome")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /trace?format=chrome = %d", rec.Code)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) < 3 {
		t.Fatalf("chrome trace has %d events", len(chrome.TraceEvents))
	}

	rec = get(t, h, "/trace?format=flame")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /trace?format=flame = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "solve") {
		t.Fatalf("flame output missing solve:\n%s", rec.Body.String())
	}
}

func TestHealthzContentType(t *testing.T) {
	_, h, _ := newTestServer(t)
	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("GET /healthz = %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
}

func TestRequestIDEchoed(t *testing.T) {
	_, h, logBuf := newTestServer(t)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-Id", "my-req-42")
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "my-req-42" {
		t.Fatalf("X-Request-Id = %q, want echo", got)
	}
	if !strings.Contains(logBuf.String(), "my-req-42") {
		t.Fatalf("access log missing request id:\n%s", logBuf.String())
	}
}

func TestStatusClassCounters(t *testing.T) {
	srv, h, _ := newStaticServer(t)
	get(t, h, "/solve")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", nil))
	snap := srv.reg.Snapshot()
	if snap.Counters["http.solve.status.2xx"] != 1 {
		t.Fatalf("2xx counter = %d, want 1", snap.Counters["http.solve.status.2xx"])
	}
	if snap.Counters["http.solve.status.4xx"] != 1 {
		t.Fatalf("4xx counter = %d, want 1", snap.Counters["http.solve.status.4xx"])
	}
	if snap.Gauges["http.in_flight"] != 0 {
		t.Fatalf("in_flight gauge = %d after requests drained", snap.Gauges["http.in_flight"])
	}
}

func TestAccessLogShape(t *testing.T) {
	_, h, logBuf := newStaticServer(t)
	get(t, h, "/solve")
	var line map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(logBuf.String(), "\n", 2)[0]), &line); err != nil {
		t.Fatalf("access log is not JSON: %v\n%s", err, logBuf.String())
	}
	for _, key := range []string{"method", "path", "status", "duration_us", "request_id"} {
		if _, ok := line[key]; !ok {
			t.Errorf("access log missing %q: %v", key, line)
		}
	}
	if line["path"] != "/solve" || line["status"] != float64(200) {
		t.Fatalf("access log line %v", line)
	}
}
