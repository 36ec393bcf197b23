package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"minup/internal/catalog"
	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/frontend"
	"minup/internal/lattice"
	"minup/internal/obs"
	"minup/internal/wal"
	"minup/internal/workload"
)

// The traced replay's fixed operation counts. Counts, not a clock, bound
// it, so the same operations run on every replay of a seed.
const (
	replayHotReads = 20000
	replayChurnOps = 1024
	replayClassify = 64
)

// replayInputs are the operations the in-process replay feeds to the
// layers: the first operations of client 0 of each workload, so every
// per-layer metric is measured whichever workload the run is for.
type replayInputs struct {
	prep     string // prepared catalog directory (never modified)
	reads    []int32
	churn    []churnOp
	classify []classifyOp
}

// tracer wraps obs spans so the untraced replay runs the same calls with
// no span bookkeeping: a nil *tracer records nothing.
type tracer struct {
	t     *obs.Tracer
	roots []*obs.Span
}

func (t *tracer) root(name string) *obs.Span {
	if t == nil {
		return nil
	}
	sp := t.t.Start(name)
	t.roots = append(t.roots, sp)
	return sp
}

// span runs fn inside a child span of parent; with a nil parent (the
// untraced replay) it just runs fn.
func span(parent *obs.Span, name string, fn func()) {
	if parent == nil {
		fn()
		return
	}
	sp := parent.Child(name)
	fn()
	sp.End()
}

func endSpan(sp *obs.Span) {
	if sp != nil {
		sp.End()
	}
}

// replayOut is what one replay measured beyond its spans.
type replayOut struct {
	wall       time.Duration
	churnStart obs.Snapshot // catalog registry before the churn phase
	churnReg   obs.Snapshot // and after it
	mutations  float64      // churn-phase puts, appends, deletes and problems
	compilable float64      // of those, the puts, appends and problems
	freshReads float64      // churn read-after-write solves
	freshHits  float64      // of those, answered from the memo
	recBytes   float64      // OnRecord payload bytes over the churn phase
	userBytes  float64      // user text bytes of those mutations
	parseBytes float64      // bytes fed to constraint.parse spans
	solves     []core.Stats
	latOps     []float64
	allocs     []float64
}

// replay runs every phase once against a fresh copy of the prepared
// catalog. With t == nil it records no spans (the overhead baseline).
func replay(ctx context.Context, work string, in *replayInputs, t *tracer) (*replayOut, error) {
	out := &replayOut{}
	dir := filepath.Join(work, fmt.Sprintf("replay-%v", t != nil))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := copyDir(in.prep, dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	reg := obs.NewRegistry()
	var recBytes atomic.Int64
	opts := catalog.Options{Dir: dir, Sync: wal.SyncAlways, Metrics: reg, Shards: runtime.GOMAXPROCS(0),
		OnRecord: func(ev catalog.RecordEvent) { recBytes.Add(int64(len(ev.Payload))) }}

	// Recovery, then one cold solve of every preloaded policy: set-up.
	var cat *catalog.Catalog
	var err error
	setup := t.root("replay.setup")
	span(setup, "catalog.recover", func() { cat, err = catalog.Open(opts) })
	if err != nil {
		return nil, err
	}
	defer cat.Close()
	for i := 0; i < preloadPolicies && err == nil; i++ {
		span(setup, "catalog.solve_cold", func() { _, err = cat.Solve(ctx, preloadName(i)) })
	}
	endSpan(setup)
	if err != nil {
		return nil, err
	}

	// Hot reads: memo hits only.
	hot := t.root("replay.hot-read")
	for _, idx := range in.reads {
		span(hot, "catalog.solve_hit", func() { _, err = cat.Solve(ctx, preloadName(int(idx))) })
		if err != nil {
			return nil, err
		}
	}
	endSpan(hot)

	// Churn: each mutation, its fresh read, the refresh pipeline's drain,
	// and a preloaded read, with the texts also fed to the layers below.
	out.churnStart = reg.Snapshot()
	recBytes.Store(0)
	churn := t.root("replay.policy-churn")
	cs := &churnState{sets: make(map[string]*constraint.Set), answers: make(map[string]map[string]string)}
	for _, op := range in.churn {
		if err := replayChurnOp(ctx, cat, churn, op, cs, out); err != nil {
			return nil, fmt.Errorf("churn %s %s: %w", op.Kind, op.Name, err)
		}
	}
	endSpan(churn)
	out.churnReg = reg.Snapshot()
	out.recBytes = float64(recBytes.Load())

	// Classify: a memory-only catalog, as minupd runs without -data-dir.
	mem, err := catalog.Open(catalog.Options{Shards: runtime.GOMAXPROCS(0)})
	if err != nil {
		return nil, err
	}
	defer mem.Close()
	cls := t.root("replay.classify")
	for _, op := range in.classify {
		if err := replayClassifyOp(ctx, mem, cls, op, out); err != nil {
			return nil, fmt.Errorf("classify %s: %w", op.Name, err)
		}
	}
	endSpan(cls)
	out.wall = time.Since(start)
	return out, nil
}

// parseLayer replays the catalog's text parsing (lattice.ParseString and
// Set.ParseString) and compilation (Set.Snapshot) on one policy's texts.
func parseLayer(parent *obs.Span, latText, consText string, out *replayOut) (*constraint.Set, *constraint.Compiled, error) {
	var set *constraint.Set
	var err error
	span(parent, "constraint.parse", func() {
		var lat lattice.Lattice
		if lat, err = lattice.ParseString(latText); err != nil {
			return
		}
		set = constraint.NewSet(lat)
		err = set.ParseString(consText)
	})
	if err != nil {
		return nil, nil, err
	}
	out.parseBytes += float64(len(latText) + len(consText))
	var c *constraint.Compiled
	span(parent, "constraint.compile", func() { c = set.Snapshot() })
	return set, c, nil
}

// churnState is the replay client's own view of its policies: the
// constraint set it rebuilt and the last answer it read for each.
type churnState struct {
	sets    map[string]*constraint.Set
	answers map[string]map[string]string
}

func replayChurnOp(ctx context.Context, cat *catalog.Catalog, parent *obs.Span, op churnOp, cs *churnState, out *replayOut) error {
	sets := cs.sets
	var opSpan *obs.Span
	if parent != nil {
		opSpan = parent.Child("op." + op.Kind.String())
		defer opSpan.End()
	}
	out.mutations++
	var err error
	var base constraint.Assignment
	var baseCount int
	switch op.Kind {
	case opPut:
		out.userBytes += float64(len(op.Lattice) + len(op.Constraints))
		span(opSpan, "catalog.put", func() {
			_, err = cat.Put(ctx, op.Name, op.Lattice, op.Constraints, catalog.Unconditional)
		})
		if err == nil {
			sets[op.Name], _, err = parseLayer(opSpan, op.Lattice, op.Constraints, out)
		}
	case opProblem:
		out.userBytes += float64(len(op.Body))
		var c *frontend.Compiled
		span(opSpan, "frontend.compile", func() {
			fe, _ := frontend.Lookup(op.Family)
			var inst frontend.Instance
			if inst, err = fe.Parse(op.Body); err == nil {
				c, err = fe.Compile(inst)
			}
		})
		if err != nil {
			return err
		}
		span(opSpan, "catalog.put", func() {
			_, err = cat.Put(ctx, op.Name, c.LatticeText, c.ConstraintText, catalog.Unconditional)
		})
		if err == nil {
			sets[op.Name], _, err = parseLayer(opSpan, c.LatticeText, c.ConstraintText, out)
		}
	case opAppend:
		out.userBytes += float64(len(op.Constraints))
		set := sets[op.Name]
		if set == nil {
			return fmt.Errorf("append before put")
		}
		baseCount = len(set.Constraints())
		if base, err = assignmentOf(set, cs.answers[op.Name]); err != nil {
			return err
		}
		span(opSpan, "catalog.append", func() {
			_, err = cat.Append(ctx, op.Name, op.Constraints, catalog.Unconditional)
		})
		if err == nil {
			span(opSpan, "constraint.parse_append", func() { err = set.ParseString(op.Constraints) })
		}
	case opDelete:
		span(opSpan, "catalog.delete", func() { err = cat.Delete(ctx, op.Name, catalog.Unconditional) })
		delete(sets, op.Name)
		delete(cs.answers, op.Name)
	}
	if err != nil {
		return err
	}
	if op.Kind != opDelete {
		var res catalog.SolveResult
		span(opSpan, "catalog.solve_fresh", func() { res, err = cat.Solve(ctx, op.Name) })
		if err != nil {
			return err
		}
		out.compilable++
		out.freshReads++
		if res.CacheHit { // a miss beat the refresh worker and solved cold
			out.freshHits++
		}
		cs.answers[op.Name] = res.Assignment
	}
	span(opSpan, "catalog.refresh_lag", func() { err = cat.Flush(ctx) })
	if err != nil {
		return err
	}
	if base != nil {
		set := sets[op.Name]
		for len(base) < set.NumAttrs() {
			base = append(base, set.Lattice().Bottom())
		}
		span(opSpan, "core.repair", func() {
			_, _, err = core.RepairContext(ctx, set, baseCount, base, core.RepairOptions{VerifyMinimal: true})
		})
		if err != nil {
			return err
		}
	}
	span(opSpan, "catalog.solve_hit", func() { _, err = cat.Solve(ctx, preloadName(int(op.Read))) })
	return err
}

func replayClassifyOp(ctx context.Context, cat *catalog.Catalog, parent *obs.Span, op classifyOp, out *replayOut) error {
	var opSpan *obs.Span
	if parent != nil {
		opSpan = parent.Child("op.classify")
		defer opSpan.End()
	}
	var body policyBody
	if err := json.Unmarshal(op.Body, &body); err != nil {
		return err
	}
	var err error
	span(opSpan, "catalog.put_wait", func() {
		_, err = cat.Put(ctx, op.Name, body.Lattice, body.Constraints, catalog.Unconditional, catalog.MutateOptions{Wait: true})
	})
	if err != nil {
		return err
	}
	span(opSpan, "catalog.solve_hit", func() { _, err = cat.Solve(ctx, op.Name) })
	if err != nil {
		return err
	}
	span(opSpan, "catalog.delete", func() { err = cat.Delete(ctx, op.Name, catalog.Unconditional) })
	if err != nil {
		return err
	}
	_, compiled, err := parseLayer(opSpan, body.Lattice, body.Constraints, out)
	if err != nil {
		return err
	}
	var res *core.Result
	span(opSpan, "core.solve", func() { res, err = core.SolveContext(ctx, compiled, core.Options{}) })
	if err != nil {
		return err
	}
	out.solves = append(out.solves, res.Stats)
	// Counting runs outside any span: allocations of one more solve with a
	// warm solver pool, and primitive lattice operations of another.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = core.SolveContext(ctx, compiled, core.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	out.allocs = append(out.allocs, float64(after.Mallocs-before.Mallocs))
	counted, err := core.SolveContext(ctx, compiled, core.Options{CollectLatticeOps: true})
	if err != nil {
		return err
	}
	out.latOps = append(out.latOps, float64(counted.Stats.LatticeOps.Total()))
	return nil
}

// spanAgg sums the durations of every span with one name.
type spanAgg struct {
	n   int
	sum time.Duration
}

// aggregate sums span durations by name, and by "root/name" so a layer's
// spans can be told apart by the phase that made them.
func aggregate(roots []*obs.Span) map[string]*spanAgg {
	out := make(map[string]*spanAgg)
	add := func(key string, d time.Duration) {
		a := out[key]
		if a == nil {
			a = &spanAgg{}
			out[key] = a
		}
		a.n++
		a.sum += d
	}
	for _, r := range roots {
		r.Walk(func(sp *obs.Span) {
			add(sp.Name(), sp.Duration())
			if sp != r {
				add(r.Name()+"/"+sp.Name(), sp.Duration())
			}
		})
	}
	return out
}

func (a *spanAgg) meanUS() float64 {
	if a == nil || a.n == 0 {
		return math.NaN()
	}
	return float64(a.sum.Nanoseconds()) / 1e3 / float64(a.n)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runTraced is the -trace 1 run: the untraced end-to-end run with
// /metrics scrapes around its timed phase, then the in-process replay
// without and with spans. It prints the per-layer metrics.
func runTraced(ctx context.Context, e *env, wl string) error {
	res, err := runE2E(ctx, e, wl, 1, 1, true)
	if err != nil {
		return err
	}
	e2e := res.report(wl)

	in := &replayInputs{prep: filepath.Join(e.work, "prep")}
	if _, err := os.Stat(in.prep); err != nil {
		pols := make([]workload.FamilyInstance, preloadPolicies)
		for i := range pols {
			if pols[i], err = preload(e.seed, i); err != nil {
				return err
			}
		}
		if err := prepCatalog(ctx, in.prep, pols); err != nil {
			return err
		}
	}
	in.reads = zipfReads(e.seed, 0, replayHotReads)
	if in.churn, err = churnOps(e.seed, 0, replayChurnOps); err != nil {
		return err
	}
	if in.classify, err = classifyOps(e.seed, 0, replayClassify); err != nil {
		return err
	}
	// An unmeasured warm-up replay first, so no measured one pays for a
	// cold page cache, empty solver pools or heap growth; then untraced,
	// traced, traced, untraced, so steady drift cancels in the overhead
	// ratio. The first traced replay's spans are the ones reported.
	if _, err := replay(ctx, e.work, in, nil); err != nil {
		return fmt.Errorf("warm-up replay: %w", err)
	}
	t := &tracer{t: obs.NewTracer()}
	var plain, traced [2]*replayOut
	for i, tr := range []*tracer{nil, t, {t: obs.NewTracer()}, nil} {
		out, err := replay(ctx, e.work, in, tr)
		if err != nil {
			return fmt.Errorf("replay %d: %w", i+1, err)
		}
		if tr == nil {
			plain[i/3] = out
		} else {
			traced[i-1] = out
		}
	}
	tracePath := filepath.Join(e.root, ".bench_build", "trace-"+wl+".json")
	if f, err := os.Create(tracePath); err == nil {
		werr := obs.WriteChromeTrace(f, t.roots...)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing trace: %w", werr)
		}
		fmt.Printf("trace %s (%d root spans)\n", tracePath, len(t.roots))
	}
	out := layerMetrics(wl, res, e2e, traced, plain, aggregate(t.roots))
	return emit(out)
}

// layerMetrics turns the scrapes, the replays and the span aggregates
// into the per-layer metrics, printing each (with the ones the JSON
// cannot carry on every workload) before returning them.
func layerMetrics(wl string, res *e2eResult, e2e result, tracedRuns, plain [2]*replayOut, agg map[string]*spanAgg) result {
	traced := tracedRuns[0]
	m := map[string]metric{}
	put := func(name, unit string, v float64, base string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Left out of the result rather than reported as a perfect 0.
			fmt.Printf("layer  %-38s absent (%s)\n", name, base)
			return
		}
		fmt.Printf("layer  %-38s %14.4f %-8s %s\n", name, v, unit, base)
		m[name] = metric{v, unit}
	}
	mean := func(name string) float64 { return agg[name].meanUS() }
	count := func(name string) int {
		if a := agg[name]; a != nil {
			return a.n
		}
		return 0
	}
	b, a := res.before, res.after

	// cmd/minupd, from /metrics deltas around the untraced timed phase.
	v, n := histMeanDelta(b, a, "http.policy.solve.duration_us")
	put("minupd.solve_server_us", "us", v, fmt.Sprintf("n=%.0f GET solve", n))
	switch wl {
	case "policy-churn":
		v, n = histMeanDelta(b, a, "http.policy.duration_us", "http.policy.constraints.duration_us", "http.problem.duration_us")
		fmt.Printf("layer  %-38s %14.4f %-8s n=%.0f (report only: hot-read and classify send no churn writes)\n", "minupd.write_server_us", v, "us", n)
	case "classify":
		v, n = histMeanDelta(b, a, "http.policy.duration_us")
		fmt.Printf("layer  %-38s %14.4f %-8s n=%.0f PUT ?wait=1 and DELETE share the route (report only)\n", "minupd.classify_server_us", v, "us", n)
	}
	// Both sides as measured: the replay's spans are not scaled to the
	// reference host, so neither is the client's read here.
	var reads samples
	for _, st := range res.sts {
		reads.merge(&st.rec.read)
	}
	readP50, ok := reads.quantile(0.5)
	if !ok {
		readP50 = math.NaN()
	}
	put("minupd.read_self_us", "us", readP50-mean("catalog.solve_hit"), "client read_p50_us as measured minus catalog.solve_hit_us")
	attempted := 0
	for _, st := range res.sts {
		attempted += st.rec.attempted
	}
	put("minupd.shed_ratio", "ratio", ratio(counterDelta(b, a, "http.shed"), float64(attempted)), fmt.Sprintf("base %d requests", attempted))

	// internal/catalog, from the traced replay's spans and registry.
	cb, ca := traced.churnStart, traced.churnReg
	put("catalog.solve_hit_us", "us", mean("catalog.solve_hit"), fmt.Sprintf("n=%d", count("catalog.solve_hit")))
	put("catalog.solve_cold_us", "us", mean("catalog.solve_cold"), fmt.Sprintf("n=%d", count("catalog.solve_cold")))
	put("catalog.put_us", "us", mean("catalog.put"), fmt.Sprintf("n=%d async", count("catalog.put")))
	put("catalog.append_us", "us", mean("catalog.append"), fmt.Sprintf("n=%d async", count("catalog.append")))
	put("catalog.delete_us", "us", mean("catalog.delete"), fmt.Sprintf("n=%d", count("catalog.delete")))
	put("catalog.put_wait_us", "us", mean("catalog.put_wait"), fmt.Sprintf("n=%d", count("catalog.put_wait")))
	put("catalog.refresh_lag_us", "us", mean("catalog.refresh_lag"), fmt.Sprintf("n=%d Flush after fresh read", count("catalog.refresh_lag")))
	put("catalog.recover_s", "s", mean("catalog.recover")/1e6, fmt.Sprintf("%d policies", preloadPolicies))
	put("catalog.cache_hit_ratio", "ratio", ratio(traced.freshHits, traced.freshReads), fmt.Sprintf("base %.0f read-after-write solves", traced.freshReads))
	compiles := counterDelta(cb, ca, "catalog.compiles")
	put("catalog.compiles_per_mutation", "ratio", ratio(compiles, traced.compilable), fmt.Sprintf("%.0f compiles / %.0f puts+appends+problems", compiles, traced.compilable))
	put("catalog.refresh_stale_ratio", "ratio", ratio(counterDelta(cb, ca, "catalog.refresh.stale"), counterDelta(cb, ca, "catalog.refresh.enqueued")),
		fmt.Sprintf("base %.0f refreshes", counterDelta(cb, ca, "catalog.refresh.enqueued")))
	put("catalog.repair_fallback_ratio", "ratio", ratio(counterDelta(cb, ca, "catalog.repair_fallbacks"), counterDelta(cb, ca, "catalog.repairs")),
		fmt.Sprintf("base %.0f repairs", counterDelta(cb, ca, "catalog.repairs")))
	v, n = histMeanDelta(cb, ca, "catalog.repair.duration_us")
	put("catalog.repair_us", "us", v, fmt.Sprintf("n=%.0f", n))
	put("catalog.compactions_per_1k_mutations", "count", 1000*ratio(counterDelta(cb, ca, "catalog.snapshots"), traced.mutations), fmt.Sprintf("base %.0f mutations", traced.mutations))

	// internal/wal.
	v, n = histMeanDelta(cb, ca, "wal.fsync.duration_us")
	put("wal.fsync_us", "us", v, fmt.Sprintf("n=%.0f", n))
	fsyncs := n
	v, n = histMeanDelta(cb, ca, "wal.append.duration_us")
	put("wal.append_us", "us", v, fmt.Sprintf("n=%.0f", n))
	put("wal.fsyncs_per_mutation", "ratio", ratio(fsyncs, traced.mutations), fmt.Sprintf("base %.0f mutations", traced.mutations))
	put("wal.record_bytes_per_user_byte", "ratio", ratio(traced.recBytes, traced.userBytes), fmt.Sprintf("%.0f record bytes / %.0f user bytes", traced.recBytes, traced.userBytes))

	// internal/constraint, internal/lattice, internal/core, internal/frontend.
	parse := agg["constraint.parse"]
	put("constraint.parse_us", "us", mean("constraint.parse"), fmt.Sprintf("n=%d", count("constraint.parse")))
	if parse != nil {
		put("constraint.parse_ns_per_byte", "ns/byte", float64(parse.sum.Nanoseconds())/traced.parseBytes, fmt.Sprintf("%.0f bytes", traced.parseBytes))
	} else {
		put("constraint.parse_ns_per_byte", "ns/byte", math.NaN(), "no parses")
	}
	put("constraint.compile_us", "us", mean("constraint.compile"), fmt.Sprintf("n=%d", count("constraint.compile")))
	put("lattice.ops_per_solve", "count", meanOf(traced.latOps), fmt.Sprintf("n=%d classify solves", len(traced.latOps)))
	put("core.solve_us", "us", mean("core.solve"), fmt.Sprintf("n=%d classify solves", count("core.solve")))
	put("core.solve_allocs", "count", meanOf(traced.allocs), fmt.Sprintf("n=%d", len(traced.allocs)))
	put("core.repair_us", "us", mean("core.repair"), fmt.Sprintf("n=%d", count("core.repair")))
	var tries, steps, minlevel, failedTries float64
	for _, st := range traced.solves {
		tries += float64(st.Tries)
		steps += float64(st.TrySteps)
		minlevel += float64(st.MinlevelCalls)
		failedTries += float64(st.FailedTries)
	}
	ns := float64(len(traced.solves))
	put("core.tries_per_solve", "count", ratio(tries, ns), fmt.Sprintf("n=%.0f", ns))
	put("core.try_steps_per_solve", "count", ratio(steps, ns), fmt.Sprintf("n=%.0f", ns))
	put("core.minlevel_calls_per_solve", "count", ratio(minlevel, ns), fmt.Sprintf("n=%.0f", ns))
	put("core.failed_try_ratio", "ratio", ratio(failedTries, tries), fmt.Sprintf("base %.0f tries", tries))
	put("frontend.compile_us", "us", mean("frontend.compile"), fmt.Sprintf("n=%d problem bodies", count("frontend.compile")))
	put("bus.dropped_ratio", "ratio", ratio(counterDelta(cb, ca, "bus.dropped"), counterDelta(cb, ca, "bus.published")),
		fmt.Sprintf("base %.0f publishes", counterDelta(cb, ca, "bus.published")))
	tw, pw := tracedRuns[0].wall+tracedRuns[1].wall, plain[0].wall+plain[1].wall
	put("bench.trace_overhead_ratio", "ratio", tw.Seconds()/pw.Seconds(),
		fmt.Sprintf("traced %.3fs+%.3fs / untraced %.3fs+%.3fs", tracedRuns[0].wall.Seconds(), tracedRuns[1].wall.Seconds(), plain[0].wall.Seconds(), plain[1].wall.Seconds()))

	// Self times: a layer's span minus the lower layers replayed beneath it.
	self := func(name string, parts ...float64) {
		v := mean(name)
		for _, p := range parts {
			v -= p
		}
		fmt.Printf("self   %-38s %14.4f us (span minus separately replayed lower layers; noisy, may go negative)\n", name, v)
	}
	walPer := m["wal.append_us"].Value + m["wal.fsync_us"].Value*m["wal.fsyncs_per_mutation"].Value
	self("replay.policy-churn/catalog.put", mean("replay.policy-churn/constraint.parse"), walPer)
	self("replay.policy-churn/catalog.append", walPer)
	self("replay.classify/catalog.put_wait", mean("replay.classify/constraint.parse"),
		mean("replay.classify/constraint.compile"), mean("replay.classify/core.solve"))
	names := make([]string, 0, len(agg))
	for k := range agg {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("span   %-38s n=%-7d mean %12.3f us\n", k, agg[k].n, agg[k].meanUS())
	}
	return result{Correct: e2e.Correct, Attempted: e2e.Attempted, Failed: e2e.Failed, Metrics: m}
}
