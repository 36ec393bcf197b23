package main

import (
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"minup/internal/catalog"
	"minup/internal/constraint"
	"minup/internal/fault"
	"minup/internal/lattice"
)

// putTestPolicy stores the two-attribute test policy under name with the
// given query (e.g. "?wait=1") and fails the test unless it was created.
func putTestPolicy(t *testing.T, h http.Handler, name, query string) {
	t.Helper()
	rec := policyReq(t, h, http.MethodPut, "/policies/"+name+query,
		&policyRequest{Lattice: testPolicyLattice, Constraints: testPolicyCons}, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT /policies/%s%s = %d: %s", name, query, rec.Code, rec.Body.String())
	}
}

// testPolicySet parses the test policy's texts, the oracle its degraded
// answers are verified against.
func testPolicySet(t *testing.T) *constraint.Set {
	t.Helper()
	lat, err := lattice.Parse(strings.NewReader(testPolicyLattice))
	if err != nil {
		t.Fatal(err)
	}
	set := constraint.NewSet(lat)
	if err := set.ParseString(testPolicyCons); err != nil {
		t.Fatal(err)
	}
	return set
}

func decodeSolve(t *testing.T, body []byte) policySolveResponse {
	t.Helper()
	var out policySolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding solve response: %v\n%s", err, body)
	}
	return out
}

// TestPolicySolveOverloadServesWarmMemo: under soft overload a policy whose
// answer is memoized is served from the memo — the minimal answer costs no
// solve, so there is nothing to degrade.
func TestPolicySolveOverloadServesWarmMemo(t *testing.T) {
	srv, h, _ := newTestServer(t)
	putTestPolicy(t, h, "warm", "?wait=1")
	srv.gate.queued.Add(srv.gate.softQueue)
	defer srv.gate.queued.Add(-srv.gate.softQueue)

	rec := get(t, h, "/policies/warm/solve")
	if rec.Code != http.StatusOK {
		t.Fatalf("overloaded warm solve = %d: %s", rec.Code, rec.Body.String())
	}
	out := decodeSolve(t, rec.Body.Bytes())
	if !out.CacheHit || out.Degraded {
		t.Fatalf("overloaded warm solve cache_hit=%v degraded=%v, want the memo", out.CacheHit, out.Degraded)
	}
	if out.Assignment["rank"] != "S" || out.Assignment["salary"] != "S" {
		t.Fatalf("assignment = %v", out.Assignment)
	}
	if got := srv.reg.Snapshot().Counters["solve.degraded"]; got != 0 {
		t.Fatalf("solve.degraded = %d, want 0", got)
	}
}

// coldPolicyServer stores the test policy under name with its background
// refresh failed by an injected compile fault, so its memo stays cold. The
// remaining rules of spec apply from then on.
func coldPolicyServer(t *testing.T, name, spec string, budget time.Duration) (*server, http.Handler) {
	t.Helper()
	inj, err := fault.ParseSpec("catalog.compile:cancel:1"+spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.fault = inj
	cfg.solveTimeout = budget
	srv, h, _ := newTestServerCfg(t, cfg)
	putTestPolicy(t, h, name, "")
	if err := srv.cat.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if info, err := srv.cat.Get(name); err != nil || info.Solved {
		t.Fatalf("policy %q after the failed refresh: solved=%v err=%v, want a cold memo", name, info.Solved, err)
	}
	return srv, h
}

// TestPolicySolveColdDegradesOnOverload: a policy with no memoized answer
// is answered under soft overload with the verified Qian baseline, without
// an upgrade_delta (there is no minimal answer to compare with).
func TestPolicySolveColdDegradesOnOverload(t *testing.T) {
	srv, h := coldPolicyServer(t, "cold", "", 2*time.Second)
	srv.gate.queued.Add(srv.gate.softQueue)
	defer srv.gate.queued.Add(-srv.gate.softQueue)

	out := decodeDegraded(t, testPolicySet(t), get(t, h, "/policies/cold/solve"), "overload")
	if out.Name != "cold" || out.Version != 1 || out.CacheHit {
		t.Fatalf("degraded answer for %q v%d cache_hit=%v", out.Name, out.Version, out.CacheHit)
	}
	if out.UpgradeDelta != nil {
		t.Fatalf("upgrade_delta = %d with no memoized answer", *out.UpgradeDelta)
	}
	snap := srv.reg.Snapshot()
	if snap.Counters["solve.degraded"] != 1 || snap.Counters["solve.degraded.overload"] != 1 {
		t.Fatalf("degraded counters %v", snap.Counters)
	}
	if snap.Counters["solve.cold"] != 0 {
		t.Fatalf("solve.cold = %d: an overloaded request must not solve", snap.Counters["solve.cold"])
	}
}

// TestPolicySolveColdDegradesOnDeadline: a cold policy whose solve misses
// its deadline is answered with the verified Qian baseline.
func TestPolicySolveColdDegradesOnDeadline(t *testing.T) {
	srv, h := coldPolicyServer(t, "slow", ";solve.step:delay:%1:30ms", 10*time.Millisecond)
	out := decodeDegraded(t, testPolicySet(t), get(t, h, "/policies/slow/solve"), "deadline")
	if out.UpgradeDelta != nil {
		t.Fatalf("upgrade_delta = %d with no memoized answer", *out.UpgradeDelta)
	}
	snap := srv.reg.Snapshot()
	if snap.Counters["solve.degraded"] != 1 || snap.Counters["solve.degraded.deadline"] != 1 {
		t.Fatalf("degraded counters %v", snap.Counters)
	}
}

func latticeOps(st solveStats) uint64 {
	return st.LatticeLub + st.LatticeGlb + st.LatticeDom + st.LatticeCovers
}

// TestPolicySolveTraceAndLatticeOps: ?trace=1 and ?lattice_ops=1 on the
// policy route run a fresh solve, report its trace ID and lattice counters,
// and leave the memo serving later requests.
func TestPolicySolveTraceAndLatticeOps(t *testing.T) {
	srv, h, logBuf := newTestServer(t)
	putTestPolicy(t, h, "p", "?wait=1")

	rec := get(t, h, "/policies/p/solve?trace=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET ?trace=1 = %d: %s", rec.Code, rec.Body.String())
	}
	out := decodeSolve(t, rec.Body.Bytes())
	if out.TraceID == "" || out.CacheHit {
		t.Fatalf("traced policy solve trace_id=%q cache_hit=%v, want a fresh traced solve", out.TraceID, out.CacheHit)
	}
	if !strings.Contains(logBuf.String(), out.TraceID) {
		t.Fatalf("access log does not carry trace id %s", out.TraceID)
	}

	rec = get(t, h, "/policies/p/solve?lattice_ops=1")
	out = decodeSolve(t, rec.Body.Bytes())
	if rec.Code != http.StatusOK || out.CacheHit {
		t.Fatalf("GET ?lattice_ops=1 = %d cache_hit=%v", rec.Code, out.CacheHit)
	}
	if latticeOps(out.Stats) == 0 {
		t.Fatalf("lattice_ops=1 reported no lattice operations: %+v", out.Stats)
	}

	if got := srv.reg.Snapshot().Counters["catalog.fresh_solves"]; got != 2 {
		t.Fatalf("catalog.fresh_solves = %d, want 2", got)
	}
	if out := decodeSolve(t, get(t, h, "/policies/p/solve").Body.Bytes()); !out.CacheHit || latticeOps(out.Stats) != 0 {
		t.Fatalf("plain solve after fresh ones: cache_hit=%v stats %+v, want the untouched memo", out.CacheHit, out.Stats)
	}
}

// TestSolveAliasMatchesPolicyRoute: /solve is the policy route for the
// static policy, so both answer the same assignment.
func TestSolveAliasMatchesPolicyRoute(t *testing.T) {
	_, h, _ := newStaticServer(t)
	alias := get(t, h, "/solve")
	route := get(t, h, "/policies/"+staticPolicy+"/solve")
	if alias.Code != http.StatusOK || route.Code != http.StatusOK {
		t.Fatalf("/solve = %d, policy route = %d", alias.Code, route.Code)
	}
	a, p := decodeSolve(t, alias.Body.Bytes()), decodeSolve(t, route.Body.Bytes())
	if !maps.Equal(a.Assignment, p.Assignment) || len(a.Assignment) != 11 {
		t.Fatalf("/solve %v != policy route %v", a.Assignment, p.Assignment)
	}
	if a.CacheHit || !p.CacheHit {
		t.Fatalf("cache_hit: /solve %v (want a fresh solve), policy route %v (want the memo)", a.CacheHit, p.CacheHit)
	}
}

// TestSolveAliasesWithoutStaticInstance: without -lattice/-constraints the
// static policy does not exist, so /solve and /trace answer 404.
func TestSolveAliasesWithoutStaticInstance(t *testing.T) {
	_, h, _ := newTestServer(t)
	for _, path := range []string{"/solve", "/trace"} {
		if rec := get(t, h, path); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s without a static instance = %d, want 404", path, rec.Code)
		}
	}
}

// TestStaticFlagsRefusedInClusterMode: the static instance is a node-local
// Put, which a cluster would not replicate, so -lattice with -cluster-peers
// is refused; the flags must also come as a pair.
func TestStaticFlagsRefusedInClusterMode(t *testing.T) {
	if err := checkStaticFlags(fig2Lattice, fig2Constraints, true); err == nil || !strings.Contains(err.Error(), "through the leader") {
		t.Fatalf("-lattice with -cluster-peers: err = %v, want a refusal naming the leader", err)
	}
	if err := checkStaticFlags(fig2Lattice, "", false); err == nil {
		t.Fatal("-lattice without -constraints accepted")
	}
	if err := checkStaticFlags(fig2Lattice, fig2Constraints, false); err != nil {
		t.Fatalf("standalone static instance refused: %v", err)
	}
	if err := checkStaticFlags("", "", true); err != nil {
		t.Fatalf("cluster node without a static instance refused: %v", err)
	}
}

// TestStoreStaticSkipsUnchangedOnRestart: restarting on the same -data-dir
// with the same files neither bumps the static policy's version nor logs a
// record; changed files replace it.
func TestStoreStaticSkipsUnchangedOnRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *catalog.Catalog {
		cat, err := catalog.Open(catalog.Options{Dir: dir, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		return cat
	}
	cat := open()
	if info, err := storeStatic(cat, fig2Lattice, fig2Constraints); err != nil || info.Version != 1 {
		t.Fatalf("first boot: version %d, err %v", info.Version, err)
	}
	cat.Close()

	cat = open()
	if info, err := storeStatic(cat, fig2Lattice, fig2Constraints); err != nil || info.Version != 1 {
		t.Fatalf("restart: version %d, err %v, want 1", info.Version, err)
	}
	cat.Close()

	cat = open()
	defer cat.Close()
	if n := cat.RecoveryInfo().WALRecords; n != 1 {
		t.Fatalf("WAL records after an unchanged restart = %d, want 1", n)
	}
	other := filepath.Join(t.TempDir(), "cons.txt")
	if err := os.WriteFile(other, []byte("attrs P\nP >= L1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if info, err := storeStatic(cat, fig2Lattice, other); err != nil || info.Version != 2 {
		t.Fatalf("changed constraints: version %d, err %v, want 2", info.Version, err)
	}
}
