package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"minup/internal/catalog"
	"minup/internal/obs"
	"minup/internal/workload"
)

// newServeServer builds a server with the default config (flight recorder
// and SLO tracker on) whose access log is JSON to io.Discard, as main logs
// to stderr: the shape the allocation gate and the HTTP benchmarks
// measure.
func newServeServer(tb testing.TB) (*server, http.Handler) {
	tb.Helper()
	cfg := defaultConfig()
	reg := obs.NewRegistry()
	cat, err := catalog.Open(catalog.Options{Metrics: reg, Flight: cfg.flight})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cat.Close() })
	srv := newServer(cat, reg, cfg)
	return srv, srv.routes(slog.New(slog.NewJSONHandler(io.Discard, nil)))
}

// putWait stores a policy from source texts with ?wait=1, so its memo is
// warm when the call returns, and fails the test unless it was stored.
func putWait(tb testing.TB, h http.Handler, name, latticeText, constraintText string) {
	tb.Helper()
	rec := policyReq(tb, h, http.MethodPut, "/policies/"+name+"?wait=1",
		&policyRequest{Lattice: latticeText, Constraints: constraintText}, nil)
	if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
		tb.Fatalf("PUT /policies/%s?wait=1 = %d: %s", name, rec.Code, rec.Body.String())
	}
}

// fig2Texts reads the Figure 2(a) fixtures.
func fig2Texts(tb testing.TB) (latticeText, constraintText string) {
	tb.Helper()
	lat, err := os.ReadFile(fig2Lattice)
	if err != nil {
		tb.Fatal(err)
	}
	cons, err := os.ReadFile(fig2Constraints)
	if err != nil {
		tb.Fatal(err)
	}
	return string(lat), string(cons)
}

// paperTexts generates the paper-family instance the end-to-end benchmark
// preloads: 36 attributes and 108 constraints over a 4-level chain.
func paperTexts(tb testing.TB, seed int64) (latticeText, constraintText string) {
	tb.Helper()
	inst, err := workload.GenerateFamily("paper", seed, 6)
	if err != nil {
		tb.Fatal(err)
	}
	return inst.Lattice, inst.Constraints
}

// serveOnce runs one GET through the full middleware stack and fails
// unless it answers 200.
func serveOnce(tb testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec
}

// TestServeAllocs gates the allocations of one request through srv.routes.
// A memo hit writes the version's pre-rendered answer, so its count does
// not grow with the number of attributes: the 36-attribute paper policy
// costs what the Figure 2 policy costs.
func TestServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	_, h := newServeServer(t)
	lat, cons := fig2Texts(t)
	putWait(t, h, "fig2", lat, cons)
	lat, cons = paperTexts(t, 1)
	putWait(t, h, "paper", lat, cons)
	for _, tc := range []struct {
		path  string
		limit float64
	}{
		{"/policies/fig2/solve", 40},
		{"/policies/paper/solve", 40},
		{"/healthz", 28},
	} {
		serveOnce(t, h, tc.path) // the version's first hit renders its answer
		got := testing.AllocsPerRun(200, func() { serveOnce(t, h, tc.path) })
		t.Logf("GET %s: %.0f allocs/request", tc.path, got)
		if got > tc.limit {
			t.Errorf("GET %s: %.0f allocs/request, limit %.0f", tc.path, got, tc.limit)
		}
	}
}

// TestHitBodyMatchesWriteJSON: a memo hit's pre-rendered answer is byte for
// byte what writeJSON makes of the equivalent policySolveResponse, with the
// same Content-Type and ETag headers.
func TestHitBodyMatchesWriteJSON(t *testing.T) {
	srv, h := newServeServer(t)
	fl, fc := fig2Texts(t)
	pl, pc := paperTexts(t, 1)
	for _, p := range []struct{ name, lat, cons string }{
		{"fig2", fl, fc},
		{"paper", pl, pc},
	} {
		putWait(t, h, p.name, p.lat, p.cons)
		path := "/policies/" + p.name + "/solve"
		first := serveOnce(t, h, path)
		got := serveOnce(t, h, path)
		if !bytes.Equal(first.Body.Bytes(), got.Body.Bytes()) {
			t.Fatalf("%s: the rendering hit and a later hit differ:\n%s\n%s", p.name, first.Body, got.Body)
		}

		res, err := srv.cat.Solve(context.Background(), p.name, catalog.SolveOptions{CacheOnly: true})
		if err != nil || !res.CacheHit {
			t.Fatalf("%s: memo lookup: hit=%v err=%v", p.name, res.CacheHit, err)
		}
		want := httptest.NewRecorder()
		want.Header().Set("ETag", catalog.ETag(res.Info.Version))
		writeJSON(want, http.StatusOK, policySolveResponse{Answer: catalog.Answer{
			Name:       res.Info.Name,
			Version:    res.Info.Version,
			CacheHit:   true,
			Assignment: catalog.FormatAssignment(res.Set, res.Memo),
			Stats:      catalog.NewAnswerStats(res.Stats),
		}})
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: hit body differs from writeJSON:\ngot  %s\nwant %s", p.name, got.Body, want.Body)
		}
		for _, k := range []string{"Content-Type", "ETag"} {
			if g, w := got.Header().Get(k), want.Header().Get(k); g != w {
				t.Errorf("%s: %s = %q, writeJSON sets %q", p.name, k, g, w)
			}
		}
	}
}

// TestHitBodyVersionUnderAppends: eight readers hammer a policy while a
// writer appends to it, alternating async and ?wait=1 appends. Every
// answer — a rendered hit or a cold fill — must carry the version its ETag
// names. Run with -race.
func TestHitBodyVersionUnderAppends(t *testing.T) {
	_, h := newServeServer(t)
	putWait(t, h, "hot", testPolicyLattice, testPolicyCons)
	var hits atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, "/policies/hot/solve", nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				var out policySolveResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusOK || err != nil {
					t.Errorf("GET = %d (%v): %s", rec.Code, err, rec.Body)
					return
				}
				if et := rec.Header().Get("ETag"); et != catalog.ETag(out.Version) {
					t.Errorf("body version %d served under ETag %s", out.Version, et)
					return
				}
				if out.CacheHit {
					hits.Add(1)
				}
			}
		}()
	}
	for i := range 40 {
		path := "/policies/hot/constraints"
		if i%2 == 1 {
			path += "?wait=1"
		}
		cons := fmt.Sprintf("attrs x%d\nx%d >= C\n", i, i)
		if rec := policyReq(t, h, http.MethodPost, path, &policyRequest{Constraints: cons}, nil); rec.Code != http.StatusOK {
			t.Errorf("POST %s = %d: %s", path, rec.Code, rec.Body)
			break
		}
	}
	close(done)
	wg.Wait()
	if hits.Load() == 0 {
		t.Fatal("no reader was served a memo hit")
	}
}

// BenchmarkHTTPPolicySolveHit is the read ladder's in-process HTTP rung: a
// warm GET /policies/{name}/solve of the 36-attribute paper policy through
// the full middleware stack with the default config.
func BenchmarkHTTPPolicySolveHit(b *testing.B) {
	_, h := newServeServer(b)
	lat, cons := paperTexts(b, 1)
	putWait(b, h, "paper", lat, cons)
	serveOnce(b, h, "/policies/paper/solve")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, h, "/policies/paper/solve")
	}
}

// BenchmarkHTTPHealthz is the same stack around a handler that does no
// work: the middleware's own cost per request.
func BenchmarkHTTPHealthz(b *testing.B) {
	_, h := newServeServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, h, "/healthz")
	}
}
