package catalog

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"minup/internal/fault"
	"minup/internal/obs"
	"minup/internal/wal"
)

const (
	testLattice = "chain mil\nlevels U C S TS\n"
	testCons    = "attrs salary rank\nsalary >= rank\nrank >= S\n"
)

func mustOpen(t *testing.T, opt Options) *Catalog {
	t.Helper()
	if opt.Shards == 0 {
		// CI runs the suite across a shard matrix: tests that don't pin a
		// count (and so assert shard-count-independent behavior) pick it
		// up from the environment instead of GOMAXPROCS.
		if env := os.Getenv("CATALOG_TEST_SHARDS"); env != "" {
			n, err := strconv.Atoi(env)
			if err != nil || n < 1 {
				t.Fatalf("bad CATALOG_TEST_SHARDS %q", env)
			}
			opt.Shards = n
		}
	}
	c, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// mustFlush drains the refresh pipeline so async mutations become
// deterministic for the assertions that follow. The timeout is far beyond
// any real drain (the heaviest soak flushes in well under a second even
// with -race): its job is turning a pending-count accounting bug into an
// immediate failure with a message, not a silent test-binary timeout.
func mustFlush(t *testing.T, c *Catalog) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v (a timeout here means the pipeline leaked a pending refresh)", err)
	}
}

func TestPutGetSolveLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustOpen(t, Options{Metrics: reg})
	ctx := context.Background()

	info, err := c.Put(ctx, "hr", testLattice, testCons, MustNotExist)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if info.Version != 1 || info.Attrs != 2 || info.Constraints != 2 {
		t.Fatalf("Put info = %+v", info)
	}
	// The mutation is visible immediately; the memoized artifacts arrive
	// asynchronously, so drain the pipeline before asserting on them.
	mustFlush(t, c)
	got, err := c.Get("hr")
	if err != nil || got.Version != 1 || got.Lattice != testLattice {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	if !got.Compiled || !got.Solved {
		t.Fatalf("refresh pipeline left the cache cold after Flush: %+v", got)
	}

	// The refresh worker warmed the cache, so every solve is a hit: zero
	// compiles and zero solves on the read path.
	res, err := c.Solve(ctx, "hr")
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.CacheHit {
		t.Fatal("solve after Flush was not served from the refreshed cache")
	}
	want := map[string]string{"salary": "S", "rank": "S"}
	for a, l := range want {
		if res.Assignment[a] != l {
			t.Fatalf("Assignment[%s] = %q, want %q (full %v)", a, res.Assignment[a], l, res.Assignment)
		}
	}
	res2, err := c.Solve(ctx, "hr")
	if err != nil || !res2.CacheHit {
		t.Fatalf("second Solve: hit=%v err=%v", res2.CacheHit, err)
	}
	if res2.Assignment["salary"] != "S" {
		t.Fatalf("cached Assignment = %v", res2.Assignment)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"catalog.compiles":          1,
		"catalog.cache_misses":      0,
		"catalog.cache_hits":        2,
		"solve.cold":                0,
		"catalog.refresh.enqueued":  1,
		"catalog.refresh.completed": 1,
		"catalog.refresh.solves":    1,
	} {
		if snap.Counters[name] != want {
			t.Errorf("counter %s = %d, want %d", name, snap.Counters[name], want)
		}
	}
	if g := snap.Gauges["catalog.policies"]; g != 1 {
		t.Errorf("catalog.policies gauge = %d, want 1", g)
	}

	if list := c.List(); len(list) != 1 || list[0].Name != "hr" || list[0].Lattice != "" {
		t.Fatalf("List = %+v", list)
	}
}

func TestVersionPreconditions(t *testing.T) {
	c := mustOpen(t, Options{})
	ctx := context.Background()

	if _, err := c.Put(ctx, "p", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(ctx, "p", testLattice, testCons, MustNotExist); !errors.Is(err, ErrExists) {
		t.Fatalf("create-only Put over existing: err = %v, want ErrExists", err)
	}
	info, err := c.Put(ctx, "p", testLattice, testCons, 1)
	if err != nil || info.Version != 2 {
		t.Fatalf("conditional replace: %+v, %v", info, err)
	}
	if _, err := c.Put(ctx, "p", testLattice, testCons, 1); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("stale Put: err = %v, want ErrVersionMismatch", err)
	}
	if _, err := c.Append(ctx, "p", "rank >= TS\n", 1); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("stale Append: err = %v, want ErrVersionMismatch", err)
	}
	if _, err := c.Append(ctx, "ghost", "rank >= TS\n", Unconditional); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Append to missing: err = %v, want ErrNotFound", err)
	}
	if err := c.Delete(ctx, "p", 1); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("stale Delete: err = %v, want ErrVersionMismatch", err)
	}
	if err := c.Delete(ctx, "p", 2); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Get("p"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: err = %v, want ErrNotFound", err)
	}
	if err := c.Delete(ctx, "p", Unconditional); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete missing: err = %v, want ErrNotFound", err)
	}

	if _, err := c.Put(ctx, "bad/name", testLattice, testCons, Unconditional); err == nil {
		t.Fatal("Put accepted a name with '/'")
	}
	if _, err := c.Put(ctx, "q", testLattice, "salary >=\n", Unconditional); err == nil {
		t.Fatal("Put accepted unparseable constraints")
	}
	if _, err := c.Put(ctx, "q", testLattice, "U >= salary\nsalary >= S\n", Unconditional); err == nil {
		t.Fatal("Put accepted an unsolvable policy")
	}
}

func TestAppendRepairsAndMemoizes(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustOpen(t, Options{Metrics: reg})
	ctx := context.Background()

	// Wait-mode Put: the refresh runs before the call returns, so the
	// cache is warm without any reader.
	pinfo, err := c.Put(ctx, "hr", testLattice, testCons, MustNotExist, MutateOptions{Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	if !pinfo.Solved || !pinfo.Compiled {
		t.Fatalf("wait-mode Put returned a cold policy: %+v", pinfo)
	}

	// Warm wait-mode append: must take the incremental-repair path, not a
	// cold solve, and must leave the repaired answer memoized.
	ar, err := c.Append(ctx, "hr", "rank >= TS\n", 1, MutateOptions{Wait: true})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if !ar.Repaired || ar.Pending || ar.Info.Version != 2 {
		t.Fatalf("AppendResult = %+v, want repaired (not pending) at version 2", ar)
	}
	if !ar.Info.Solved || !ar.Info.Compiled {
		t.Fatalf("wait-mode repaired append left cache flags cold: %+v", ar.Info)
	}
	res, err := c.Solve(ctx, "hr")
	if err != nil || !res.CacheHit {
		t.Fatalf("Solve after append: hit=%v err=%v", res.CacheHit, err)
	}
	if res.Assignment["rank"] != "TS" || res.Assignment["salary"] != "TS" {
		t.Fatalf("repaired Assignment = %v, want both TS", res.Assignment)
	}
	snap := reg.Snapshot()
	if snap.Counters["solve.cold"] != 0 {
		t.Fatalf("solve.cold = %d after warm append, want 0 (repair must not cold-solve)", snap.Counters["solve.cold"])
	}
	if snap.Counters["catalog.repairs"] != 1 {
		t.Fatalf("catalog.repairs = %d, want 1", snap.Counters["catalog.repairs"])
	}

	// Append introducing a brand-new attribute: the repair extends the
	// solution to it.
	if _, err := c.Append(ctx, "hr", "bonus >= salary\n", 2, MutateOptions{Wait: true}); err != nil {
		t.Fatal(err)
	}
	res, err = c.Solve(ctx, "hr")
	if err != nil || !res.CacheHit || res.Assignment["bonus"] != "TS" {
		t.Fatalf("Solve with new attr: hit=%v res=%v err=%v", res.CacheHit, res.Assignment, err)
	}

	// A failed append (parse error, then unsolvable §6 bound) must leave
	// the policy byte-identical and the cache warm.
	before := c.Fingerprint()
	if _, err := c.Append(ctx, "hr", "lub( >= oops\n", Unconditional); err == nil {
		t.Fatal("Append accepted garbage")
	}
	if _, err := c.Append(ctx, "hr", "U >= rank\n", Unconditional); err == nil {
		t.Fatal("Append accepted an unsolvable upper bound")
	}
	if !bytes.Equal(before, c.Fingerprint()) {
		t.Fatal("failed append mutated the policy")
	}
	if res, err := c.Solve(ctx, "hr"); err != nil || !res.CacheHit {
		t.Fatalf("cache lost after failed append: hit=%v err=%v", res.CacheHit, err)
	}

	// Async append: returns immediately with Pending set, no repair stats;
	// the shard worker repairs in the background (the cache was warm, so
	// the refresh goes through RepairContext, not a cold solve).
	ar, err = c.Append(ctx, "hr", "salary >= TS\n", Unconditional)
	if err != nil || ar.Repaired || !ar.Pending {
		t.Fatalf("async Append = %+v, %v (want pending, unrepaired)", ar, err)
	}
	mustFlush(t, c)
	res, err = c.Solve(ctx, "hr")
	if err != nil || !res.CacheHit || res.Assignment["salary"] != "TS" {
		t.Fatalf("solve after flushed async append: hit=%v res=%v err=%v", res.CacheHit, res.Assignment, err)
	}
	snap = reg.Snapshot()
	if snap.Counters["catalog.repairs"] != 3 {
		t.Fatalf("catalog.repairs = %d, want 3 (async refresh must repair, not cold-solve)", snap.Counters["catalog.repairs"])
	}
	if snap.Counters["solve.cold"] != 0 {
		t.Fatalf("solve.cold = %d, want 0", snap.Counters["solve.cold"])
	}
}

func TestDurabilityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c := mustOpen(t, Options{Dir: dir, Sync: wal.SyncAlways})
	if _, err := c.Put(ctx, "a", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(ctx, "b", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, "a", "rank >= TS\n", Unconditional); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, "b", Unconditional); err != nil {
		t.Fatal(err)
	}
	want := c.Fingerprint()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := mustOpen(t, Options{Dir: dir, Sync: wal.SyncAlways})
	if got := c2.Fingerprint(); !bytes.Equal(got, want) {
		t.Fatalf("reopened state differs:\n%s\nwant:\n%s", got, want)
	}
	ri := c2.RecoveryInfo()
	if ri.WALRecords != 4 || ri.TornTail {
		t.Fatalf("RecoveryInfo = %+v, want 4 WAL records, no torn tail", ri)
	}
	info, err := c2.Get("a")
	if err != nil || info.Version != 2 {
		t.Fatalf("recovered policy a = %+v, %v (want version 2)", info, err)
	}
	// Versions keep climbing from the recovered point.
	if inf, err := c2.Put(ctx, "a", testLattice, testCons, 2); err != nil || inf.Version != 3 {
		t.Fatalf("post-recovery Put = %+v, %v", inf, err)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c := mustOpen(t, Options{Dir: dir, Sync: wal.SyncAlways, SnapshotEvery: 4, Shards: 1})
	for _, name := range []string{"a", "b", "c"} {
		if _, err := c.Put(ctx, name, testLattice, testCons, MustNotExist); err != nil {
			t.Fatal(err)
		}
	}
	// Save the pre-compaction WAL (records 1..3): restoring it later
	// simulates a crash in the window between "snapshot written" and "WAL
	// reset".
	oldWAL, err := os.ReadFile(filepath.Join(dir, "catalog-0.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, "a", "rank >= TS\n", Unconditional); err != nil { // 4th record: compacts
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "catalog-0.snap")); err != nil {
		t.Fatalf("no snapshot after compaction threshold: %v", err)
	}
	if fi, _ := os.Stat(filepath.Join(dir, "catalog-0.wal")); fi.Size() != 0 {
		t.Fatalf("WAL not reset after compaction: %d bytes", fi.Size())
	}
	want := c.Fingerprint()
	c.Close()

	// Clean reopen from snapshot only.
	c2 := mustOpen(t, Options{Dir: dir, Sync: wal.SyncAlways, SnapshotEvery: 4, Shards: 1})
	if got := c2.Fingerprint(); !bytes.Equal(got, want) {
		t.Fatalf("snapshot-only recovery differs:\n%s\nwant:\n%s", got, want)
	}
	if ri := c2.RecoveryInfo(); ri.SnapshotPolicies != 3 || ri.WALRecords != 0 {
		t.Fatalf("RecoveryInfo = %+v", ri)
	}
	c2.Close()

	// Crash-window replay: stale WAL records whose mutations the snapshot
	// already contains must be skipped by sequence number, not re-applied.
	if err := os.WriteFile(filepath.Join(dir, "catalog-0.wal"), oldWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	c3 := mustOpen(t, Options{Dir: dir, Sync: wal.SyncAlways, SnapshotEvery: 4, Shards: 1})
	if got := c3.Fingerprint(); !bytes.Equal(got, want) {
		t.Fatalf("crash-window recovery differs:\n%s\nwant:\n%s", got, want)
	}
	if ri := c3.RecoveryInfo(); ri.WALRecords != 0 {
		t.Fatalf("stale records were replayed: %+v", ri)
	}
	// And the catalog must still append correctly past the stale tail.
	if inf, err := c3.Put(ctx, "d", testLattice, testCons, MustNotExist); err != nil || inf.Version != 1 {
		t.Fatalf("post-crash-window Put = %+v, %v", inf, err)
	}
}

// countingSink counts solver events, standing in for a flight capture.
type countingSink struct{ sinks, events int }

func (s *countingSink) CaptureSink() obs.EventSink { s.sinks++; return s }
func (s *countingSink) Event(obs.Event)            { s.events++ }

// TestSolveOptions pins the three Solve modes: a cache-only lookup never
// solves, a fresh solve never writes the memo, and a memo hit never asks
// for a capture sink.
func TestSolveOptions(t *testing.T) {
	reg := obs.NewRegistry()
	// The first compile — the async refresh's — fails, so the memo stays
	// cold until a read fills it.
	inj, err := fault.ParseSpec("catalog.compile:cancel:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, Options{Metrics: reg, Fault: inj})
	ctx := context.Background()
	if _, err := c.Put(ctx, "hr", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, c)

	res, err := c.Solve(ctx, "hr", SolveOptions{CacheOnly: true})
	if err != nil || res.Assignment != nil || res.CacheHit || res.Memo != nil || res.Set == nil || res.Info.Version != 1 {
		t.Fatalf("cache-only on a cold memo = %+v, %v; want Info and Set only", res, err)
	}

	sink := &countingSink{}
	res, err = c.Solve(ctx, "hr", SolveOptions{Fresh: true, Capture: sink, LatticeOps: true})
	if err != nil || res.CacheHit || res.Assignment["salary"] != "S" {
		t.Fatalf("fresh solve = %+v, %v", res, err)
	}
	if sink.sinks != 1 || sink.events == 0 || res.Stats.LatticeOps.Lub == 0 {
		t.Fatalf("fresh solve: %d sinks, %d events, lattice ops %+v", sink.sinks, sink.events, res.Stats.LatticeOps)
	}
	if info, _ := c.Get("hr"); info.Solved || !info.Compiled {
		t.Fatalf("after a fresh solve: %+v, want compiled but no memo", info)
	}

	// A plain solve fills the memo; a memo hit then asks for no sink, and
	// a fresh solve reports the memo next to its own answer.
	if res, err := c.Solve(ctx, "hr", SolveOptions{Capture: sink}); err != nil || res.CacheHit || sink.sinks != 2 {
		t.Fatalf("cold solve = %+v, %v (%d sinks)", res, err, sink.sinks)
	}
	if res, err := c.Solve(ctx, "hr", SolveOptions{Capture: sink}); err != nil || !res.CacheHit || res.Memo == nil || sink.sinks != 2 {
		t.Fatalf("memo hit = %+v, %v (%d sinks)", res, err, sink.sinks)
	}
	if res, err := c.Solve(ctx, "hr", SolveOptions{Fresh: true}); err != nil || res.CacheHit || res.Memo == nil {
		t.Fatalf("fresh solve over a warm memo = %+v, %v", res, err)
	}
	snap := reg.Snapshot()
	if snap.Counters["catalog.fresh_solves"] != 2 || snap.Counters["solve.cold"] != 1 || snap.Counters["catalog.compiles"] != 1 {
		t.Fatalf("counters %v", snap.Counters)
	}

	// A solver failure still hands back the version's set, so callers can
	// fall back to a baseline for the same version.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	res, err = c.Solve(canceled, "hr", SolveOptions{Fresh: true})
	if err == nil || res.Set == nil || res.Memo == nil {
		t.Fatalf("canceled fresh solve = %+v, %v; want the error with Set and Memo", res, err)
	}
	if _, err := c.Solve(ctx, "nope", SolveOptions{CacheOnly: true}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cache-only on an unknown name: %v", err)
	}
}

// TestSolveHitIgnoresAppendHistory checks that a warm Solve costs the same
// whatever the policy's append history: its Info carries no source texts,
// so a policy built by 256 appends allocates no more per hit than the same
// policy stored by one Put.
func TestSolveHitIgnoresAppendHistory(t *testing.T) {
	c := mustOpen(t, Options{})
	ctx := context.Background()
	wait := MutateOptions{Wait: true}
	base := "a0 >= C"
	if _, err := c.Put(ctx, "appended", testLattice, base, Unconditional, wait); err != nil {
		t.Fatal(err)
	}
	lines := []string{base}
	for i := 0; i < 256; i++ {
		line := "a" + strconv.Itoa(i+1) + " >= a" + strconv.Itoa(i)
		if _, err := c.Append(ctx, "appended", line, Unconditional, wait); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	var whole bytes.Buffer
	for _, l := range lines {
		whole.WriteString(l + "\n")
	}
	if _, err := c.Put(ctx, "whole", testLattice, whole.String(), Unconditional, wait); err != nil {
		t.Fatal(err)
	}
	allocs := map[string]float64{}
	for _, name := range []string{"appended", "whole"} {
		res, err := c.Solve(ctx, name) // renders the version's hit
		if err != nil || !res.CacheHit {
			t.Fatalf("%s: warm solve hit=%v err=%v", name, res.CacheHit, err)
		}
		if res.Info.Lattice != "" || res.Info.ConstraintText != "" {
			t.Errorf("%s: Solve's Info carries source texts", name)
		}
		allocs[name] = testing.AllocsPerRun(100, func() {
			if _, err := c.Solve(ctx, name); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs["appended"] > allocs["whole"] {
		t.Errorf("warm Solve allocs: %v after 256 appends, %v for one Put", allocs["appended"], allocs["whole"])
	}
	if info, err := c.Get("appended"); err != nil || info.ConstraintText != strings.Join(lines, "\n") {
		t.Errorf("Get(appended).ConstraintText = %q, %v", info.ConstraintText, err)
	}
}
