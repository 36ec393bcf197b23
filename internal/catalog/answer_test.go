package catalog

import (
	"context"
	"encoding/json"
	"maps"
	"testing"

	"minup/internal/fault"
)

// slowRefresh delays every compile, so a refresh the mutation handed to
// the shard worker is still running when the test reads straight after
// the mutation: a stale memo left behind would answer that read.
func slowRefresh(t *testing.T) *fault.Injector {
	t.Helper()
	inj, err := fault.ParseSpec("catalog.compile:delay:%1:50ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// checkServed asserts that name serves the current version's answer want,
// first straight after a mutation — a memo hit or a cold fill — and then,
// once the refresh has settled, from two rendered memo hits (the first
// renders, the second reuses): the body names the catalog's version, the
// ETag is that version's, and the assignment equals a fresh solve's.
func checkServed(t *testing.T, c *Catalog, name string, want map[string]string) {
	t.Helper()
	ctx := context.Background()
	res, err := c.Solve(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Version != info.Version || !maps.Equal(res.Assignment, want) {
		t.Fatalf("%s v%d: served v%d %v, want %v", name, info.Version, res.Info.Version, res.Assignment, want)
	}
	mustFlush(t, c)
	fresh, err := c.Solve(ctx, name, SolveOptions{Fresh: true})
	if err != nil || !maps.Equal(fresh.Assignment, want) {
		t.Fatalf("%s v%d: fresh solve %v (%v), want %v", name, info.Version, fresh.Assignment, err, want)
	}
	for range 2 {
		res, err := c.Solve(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit || res.Body == nil {
			t.Fatalf("%s v%d: want a rendered memo hit, got hit=%v body=%d bytes", name, info.Version, res.CacheHit, len(res.Body))
		}
		var ans Answer
		if err := json.Unmarshal(res.Body, &ans); err != nil {
			t.Fatalf("%s: decoding body: %v\n%s", name, err, res.Body)
		}
		if ans.Name != name || ans.Version != info.Version || !ans.CacheHit || res.ETag != ETag(info.Version) {
			t.Fatalf("%s v%d: body %s v%d cache_hit=%v under ETag %s", name, info.Version, ans.Name, ans.Version, ans.CacheHit, res.ETag)
		}
		if !maps.Equal(ans.Assignment, want) || !maps.Equal(res.Assignment, want) {
			t.Fatalf("%s v%d: hit serves %v (body %v), want %v", name, info.Version, res.Assignment, ans.Assignment, want)
		}
	}
}

// TestHitBodyNeverStale walks one name through every mutation that
// installs or drops a memo and checks after each that no hit serves a body
// rendered for an earlier version. Each step moves the answer, so a stale
// body shows as a wrong assignment.
func TestHitBodyNeverStale(t *testing.T) {
	ctx := context.Background()
	c := mustOpen(t, Options{Fault: slowRefresh(t)})
	wait := MutateOptions{Wait: true}

	if _, err := c.Put(ctx, "p", testLattice, testCons, MustNotExist, wait); err != nil {
		t.Fatal(err)
	}
	checkServed(t, c, "p", map[string]string{"salary": "S", "rank": "S"})

	// Replace: a new policy value, warmed inline.
	if _, err := c.Put(ctx, "p", testLattice, "attrs salary rank\nsalary >= rank\nrank >= C\n", Unconditional, wait); err != nil {
		t.Fatal(err)
	}
	checkServed(t, c, "p", map[string]string{"salary": "C", "rank": "C"})

	// Async append: the refresh worker repairs and installs.
	if _, err := c.Append(ctx, "p", "salary >= TS\n", Unconditional); err != nil {
		t.Fatal(err)
	}
	checkServed(t, c, "p", map[string]string{"salary": "TS", "rank": "C"})

	// ?wait=1 append: repaired inline under the shard lock.
	ar, err := c.Append(ctx, "p", "rank >= S\n", Unconditional, wait)
	if err != nil || !ar.Repaired {
		t.Fatalf("wait append: repaired=%v err=%v", ar.Repaired, err)
	}
	checkServed(t, c, "p", map[string]string{"salary": "TS", "rank": "S"})

	// Delete and re-create: the version sequence restarts at 1, where the
	// first lifetime answered rank S.
	if err := c.Delete(ctx, "p", Unconditional); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(ctx, "p", testLattice, "attrs salary rank\nrank >= C\n", MustNotExist); err != nil {
		t.Fatal(err)
	}
	checkServed(t, c, "p", map[string]string{"salary": "U", "rank": "C"})
}

// TestHitBodyNeverStaleReplicated is TestHitBodyNeverStale on a follower:
// a record applied with ApplyRecord drops the memo, and the follower's
// refresh installs a new one.
func TestHitBodyNeverStaleReplicated(t *testing.T) {
	ctx := context.Background()
	var recs [][]byte
	leader, follower := mustOpen(t, Options{Shards: 1, OnRecord: func(ev RecordEvent) {
		recs = append(recs, append([]byte(nil), ev.Payload...))
	}}), mustOpen(t, Options{Shards: 1, Fault: slowRefresh(t)})
	applied := 0
	ship := func() {
		t.Helper()
		for _, rec := range recs[applied:] {
			if _, err := follower.ApplyRecord(0, rec); err != nil {
				t.Fatal(err)
			}
		}
		applied = len(recs)
	}

	if _, err := leader.Put(ctx, "p", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	ship()
	checkServed(t, follower, "p", map[string]string{"salary": "S", "rank": "S"})

	if _, err := leader.Append(ctx, "p", "salary >= TS\n", Unconditional); err != nil {
		t.Fatal(err)
	}
	ship()
	checkServed(t, follower, "p", map[string]string{"salary": "TS", "rank": "S"})

	if err := leader.Delete(ctx, "p", Unconditional); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Put(ctx, "p", testLattice, "attrs salary rank\nrank >= C\n", MustNotExist); err != nil {
		t.Fatal(err)
	}
	ship()
	checkServed(t, follower, "p", map[string]string{"salary": "U", "rank": "C"})
}
