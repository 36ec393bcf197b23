package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"minup/internal/baseline"
	"minup/internal/catalog"
	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/fault"
	"minup/internal/obs"
)

// slowCfg returns a policy whose every solver step sleeps, so a solve
// reliably outlives the given budget while the Qian baseline (which does
// not run through the solver) stays fast.
func slowCfg(t *testing.T, stepDelay, budget time.Duration) config {
	t.Helper()
	inj, err := fault.ParseSpec(fmt.Sprintf("solve.step:delay:%%1:%s", stepDelay), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.fault = inj
	cfg.solveTimeout = budget
	return cfg
}

func TestReadyzStates(t *testing.T) {
	srv, h, _ := newTestServer(t)

	rec := get(t, h, "/readyz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ready") {
		t.Fatalf("idle /readyz = %d %q, want 200 ready", rec.Code, rec.Body.String())
	}

	srv.draining.Store(true)
	rec = get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("draining /readyz = %d %q, want 503 draining", rec.Code, rec.Body.String())
	}
	// Liveness is unaffected: a draining process is still alive.
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200", rec.Code)
	}
	srv.draining.Store(false)

	srv.gate.queued.Add(srv.gate.softQueue)
	rec = get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "overloaded") {
		t.Fatalf("overloaded /readyz = %d %q, want 503 overloaded", rec.Code, rec.Body.String())
	}
	srv.gate.queued.Add(-srv.gate.softQueue)
}

func TestSolveShedWhenSaturated(t *testing.T) {
	cfg := defaultConfig()
	cfg.maxInflight = 1
	cfg.maxQueue = 0
	srv, h, _ := newStaticServerCfg(t, cfg)

	// Occupy the only slot, as a long-running solve would.
	srv.gate.sem <- struct{}{}
	defer func() { <-srv.gate.sem }()

	rec := get(t, h, "/solve")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated /solve = %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response has no Retry-After")
	}
	if got := srv.reg.Snapshot().Counters["http.shed"]; got != 1 {
		t.Fatalf("http.shed = %d, want 1", got)
	}
	// /trace runs behind the same gate.
	if rec := get(t, h, "/trace"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated /trace = %d", rec.Code)
	}
}

func TestSolveShedWhileDraining(t *testing.T) {
	srv, h, _ := newStaticServer(t)
	srv.draining.Store(true)
	rec := get(t, h, "/solve")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /solve = %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("draining shed body %q", rec.Body.String())
	}
}

// decodeDegraded asserts a 200 degraded response with the given reason and
// returns it after re-verifying the served assignment against set.
func decodeDegraded(t *testing.T, set *constraint.Set, rec *httptest.ResponseRecorder, reason string) policySolveResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded solve = %d: %s", rec.Code, rec.Body.String())
	}
	var out policySolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.DegradeReason != reason {
		t.Fatalf("degraded=%v reason=%q, want degraded %q: %s", out.Degraded, out.DegradeReason, reason, rec.Body.String())
	}
	// The degraded answer must still satisfy every constraint: parse the
	// served levels back and check.
	lat := set.Lattice()
	m := make(constraint.Assignment, len(out.Assignment))
	for _, a := range set.Attrs() {
		lvl, err := lat.ParseLevel(out.Assignment[set.AttrName(a)])
		if err != nil {
			t.Fatalf("served level %q: %v", out.Assignment[set.AttrName(a)], err)
		}
		m[a] = lvl
	}
	if err := core.Verify(set, m); err != nil {
		t.Fatalf("degraded assignment does not verify: %v", err)
	}
	return out
}

func TestSolveDegradesOnDeadline(t *testing.T) {
	srv, h, _ := newStaticServerCfg(t, slowCfg(t, 30*time.Millisecond, 10*time.Millisecond))
	rec := get(t, h, "/solve")
	out := decodeDegraded(t, fig2Set(t), rec, "deadline")
	if out.UpgradedAttrs <= 0 {
		t.Fatalf("degraded response reports %d upgraded attrs", out.UpgradedAttrs)
	}
	// The boot refresh ran without a deadline and memoized the minimal
	// answer, so the delta is measured against it.
	if want := out.UpgradedAttrs - memoUpgraded(t, srv, staticPolicy); out.UpgradeDelta == nil || *out.UpgradeDelta != want {
		t.Fatalf("upgrade_delta = %v, want %d against the memoized answer", out.UpgradeDelta, want)
	}
	snap := srv.reg.Snapshot()
	if snap.Counters["solve.degraded"] != 1 || snap.Counters["solve.degraded.deadline"] != 1 {
		t.Fatalf("degraded counters %v", snap.Counters)
	}
}

func TestSolveDegradesOnOverload(t *testing.T) {
	srv, h, _ := newStaticServer(t)
	srv.gate.queued.Add(srv.gate.softQueue)
	defer srv.gate.queued.Add(-srv.gate.softQueue)
	rec := get(t, h, "/solve")
	decodeDegraded(t, fig2Set(t), rec, "overload")
	if got := srv.reg.Snapshot().Counters["solve.degraded.overload"]; got != 1 {
		t.Fatalf("solve.degraded.overload = %d, want 1", got)
	}
}

// memoUpgraded counts the attributes above bottom in the minimal answer
// memoized for the policy's current version.
func memoUpgraded(t *testing.T, srv *server, name string) int {
	t.Helper()
	res, err := srv.cat.Solve(context.Background(), name, catalog.SolveOptions{CacheOnly: true})
	if err != nil || res.Memo == nil {
		t.Fatalf("policy %q has no memoized answer (err %v)", name, err)
	}
	return baseline.CountUpgraded(res.Set, res.Memo)
}

func TestUpgradeDeltaAgainstLastMinimalSolve(t *testing.T) {
	// A minimal solve first, then a forced-degraded one: the degraded
	// response must report its over-classification cost as a delta against
	// the minimal answer memoized for the same version.
	srv, h, _ := newStaticServer(t)
	if rec := get(t, h, "/solve"); rec.Code != http.StatusOK {
		t.Fatalf("minimal solve = %d", rec.Code)
	}
	srv.gate.queued.Add(srv.gate.softQueue)
	defer srv.gate.queued.Add(-srv.gate.softQueue)
	out := decodeDegraded(t, fig2Set(t), get(t, h, "/solve"), "overload")
	memo := memoUpgraded(t, srv, staticPolicy)
	if out.UpgradeDelta == nil || *out.UpgradeDelta != out.UpgradedAttrs-memo {
		t.Fatalf("upgrade_delta = %v, want %d - %d", out.UpgradeDelta, out.UpgradedAttrs, memo)
	}
	if *out.UpgradeDelta < 0 {
		t.Fatalf("upgrade_delta = %d; Qian can never upgrade fewer attrs than minimal", *out.UpgradeDelta)
	}
}

func TestSolveTimeoutQueryClamped(t *testing.T) {
	// ?timeout_ms may shrink the budget but never grow it past the flag.
	srv, _, _ := newTestServerCfg(t, slowCfg(t, time.Millisecond, 50*time.Millisecond))
	req := httptest.NewRequest(http.MethodGet, "/solve?timeout_ms=999999", nil)
	if got := srv.solveBudget(req.URL.Query()); got != 50*time.Millisecond {
		t.Fatalf("budget = %s, want clamp to 50ms", got)
	}
	req = httptest.NewRequest(http.MethodGet, "/solve?timeout_ms=0", nil)
	if got := srv.solveBudget(req.URL.Query()); got != time.Millisecond {
		t.Fatalf("budget = %s, want floor 1ms", got)
	}
	req = httptest.NewRequest(http.MethodGet, "/solve?timeout_ms=7", nil)
	if got := srv.solveBudget(req.URL.Query()); got != 7*time.Millisecond {
		t.Fatalf("budget = %s, want 7ms", got)
	}
}

func TestDeadlineWithoutDegradeIs504(t *testing.T) {
	cfg := slowCfg(t, 30*time.Millisecond, 10*time.Millisecond)
	cfg.degrade = false
	_, h, _ := newStaticServerCfg(t, cfg)
	rec := get(t, h, "/solve")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline with -degrade=false = %d: %s", rec.Code, rec.Body.String())
	}
}

func TestSolverPanicAnswers500(t *testing.T) {
	// A fault-injected solver panic must surface as an opaque 500 (the
	// recovery guard in core converts it to a typed internal error), never
	// crash the server, and leave the next solve working. The rule is armed
	// after boot so the boot refresh's solve does not consume it.
	inj := fault.New(1)
	cfg := defaultConfig()
	cfg.fault = inj
	_, h, _ := newStaticServerCfg(t, cfg)
	if err := inj.Rearm("solve.step:panic:1"); err != nil {
		t.Fatal(err)
	}
	rec := get(t, h, "/solve")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking solve = %d: %s", rec.Code, rec.Body.String())
	}
	if strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatal("500 body leaks a stack trace")
	}
	// The panic fired its once-only rule; the next solve must be clean.
	rec = get(t, h, "/solve")
	if rec.Code != http.StatusOK {
		t.Fatalf("solve after panic = %d: %s", rec.Code, rec.Body.String())
	}
	if got := core.PanicsRecovered(); got < 1 {
		t.Fatalf("PanicsRecovered = %d, want >= 1", got)
	}
	// /trace shares the mapping: the same opaque 500, never the panic text.
	if err := inj.Rearm("solve.step:panic:1"); err != nil {
		t.Fatal(err)
	}
	rec = get(t, h, "/trace")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking trace = %d: %s", rec.Code, rec.Body.String())
	}
	if body := rec.Body.String(); strings.Contains(body, "solver panic") || strings.Contains(body, "goroutine") {
		t.Fatalf("trace 500 body leaks the panic: %q", body)
	}
}

func TestMiddlewarePanicRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	logBuf := &strings.Builder{}
	logger := slog.New(slog.NewJSONHandler(logBuf, nil))
	h := instrument("boom", httpObs{reg: reg, logger: logger}, func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d", rec.Code)
	}
	snap := reg.Snapshot()
	if snap.Counters["http.panics"] != 1 {
		t.Fatalf("http.panics = %d, want 1", snap.Counters["http.panics"])
	}
	if snap.Counters["http.boom.status.5xx"] != 1 {
		t.Fatalf("5xx counter = %d, want 1 (bookkeeping must survive the panic)", snap.Counters["http.boom.status.5xx"])
	}
	if snap.Gauges["http.in_flight"] != 0 {
		t.Fatalf("in_flight = %d after panic", snap.Gauges["http.in_flight"])
	}
	log := logBuf.String()
	if !strings.Contains(log, "handler panic") || !strings.Contains(log, "handler exploded") {
		t.Fatalf("panic not logged:\n%s", log)
	}
}

// TestGracefulShutdownDrainsInFlight is the end-to-end drain scenario over
// a real listener: an in-flight slow /solve must complete while the
// draining server refuses new work and reports not-ready.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	srv, h, _ := newStaticServerCfg(t, slowCfg(t, 20*time.Millisecond, 2*time.Second))
	ts := httptest.NewServer(h)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	inflight := make(chan int, 1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/solve")
		if err != nil {
			t.Errorf("in-flight solve: %v", err)
			inflight <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()

	// Give the slow solve time to pass admission and enter the solver,
	// then start draining, as the SIGTERM handler does.
	time.Sleep(30 * time.Millisecond)
	srv.draining.Store(true)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new /solve while draining = %d, want 503", resp.StatusCode)
	}

	wg.Wait()
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight solve finished %d, want 200 (drain must not kill it)", code)
	}
}
