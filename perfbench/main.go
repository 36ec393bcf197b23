// Command perfbench is minup's end-to-end benchmark. It builds cmd/minupd
// from the checkout, launches it on loopback with its default flags
// (setting only the listen addresses and -data-dir), drives one workload
// from two closed-loop clients on two keep-alive connections, checks every
// answer, and prints each metric by name with its unit and sample count.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 1 it also replays the seed's operations in process against
// the layers' public functions, recording spans around each call, and
// prints per-layer metrics instead of the end-to-end ones. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"minup/internal/obs"
)

// deadline bounds a whole run after the build; the benchmark must exit
// well within 180s.
const deadline = 170 * time.Second

var workloads = []string{"hot-read", "policy-churn", "classify"}

// env is one benchmark invocation's fixed context.
type env struct {
	root    string // checkout root
	bin     string // built minupd
	work    string // scratch directory for data dirs, logs and traces
	seed    int64
	seconds int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// live tracks the running minupd so a signal or the deadline can still
// stop and reap it.
var live struct {
	mu sync.Mutex
	s  *server
}

func setLive(s *server) {
	live.mu.Lock()
	live.s = s
	live.mu.Unlock()
}

func stopLive() {
	live.mu.Lock()
	s := live.s
	live.s = nil
	live.mu.Unlock()
	if s != nil {
		s.stop()
	}
}

func main() {
	root := flag.String("root", ".", "checkout root holding go.mod and cmd/minupd")
	wl := flag.String("workload", "", "workload: "+strings.Join(workloads, ", ")+", or all to run each in turn")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay and prints per-layer metrics")
	flag.Parse()
	if !(contains(workloads, *wl) || *wl == "all") || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s or all, -seconds >= 1, -trace 0|1\n", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	sel := []string{*wl}
	if *wl == "all" {
		sel = workloads
	}
	for _, w := range sel {
		if err := run(*root, w, *seed, *seconds, *trace == 1); err != nil {
			stopLive()
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			os.Exit(1)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

func run(root, wl string, seed int64, seconds int, traced bool) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "minupd")); err != nil {
		return fmt.Errorf("no minupd source under %s: %w", root, err)
	}
	e := &env{root: root, seed: seed, seconds: seconds,
		bin:  filepath.Join(root, ".bench_build", "minupd"),
		work: filepath.Join(root, ".bench_build", fmt.Sprintf("run-%s-%d", wl, os.Getpid()))}
	build := exec.Command("go", "build", "-o", e.bin, "./cmd/minupd")
	build.Dir = root
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building minupd: %w", err)
	}
	if err := os.RemoveAll(e.work); err != nil {
		return err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	ctx, cancelTimeout := context.WithTimeout(ctx, deadline)
	defer cancelTimeout()
	// The client loops poll the clock, not the context; if the run overstays,
	// stop the server so every in-flight request fails fast.
	stopWatch := context.AfterFunc(ctx, stopLive)
	defer stopWatch()

	printStamp(e, wl, traced)
	if traced {
		err = runTraced(ctx, e, wl)
	} else {
		err = runE2EAndReport(ctx, e, wl)
	}
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("run did not finish within %s: %w", deadline, ctx.Err())
	}
	if err != nil {
		// Keep the data dirs and minupd logs for inspection.
		return fmt.Errorf("%w (logs kept in %s)", err, e.work)
	}
	return os.RemoveAll(e.work)
}

func runE2EAndReport(ctx context.Context, e *env, wl string) error {
	groups, size := setupPlan(wl)
	res, err := runE2E(ctx, e, wl, groups, size, false)
	if err != nil {
		return err
	}
	return emit(res.report(wl))
}

// setupPlan is how a run sets the server up: groups of size set-ups each;
// setup_s is the median over the groups. A memory-only start takes about
// 10ms, no longer than the kernel's CPU-time tick, so its steal share can
// only be read over a group of starts.
func setupPlan(wl string) (groups, size int) {
	if wl == "classify" {
		return 10, 10
	}
	return 5, 1
}

// emit prints the result object as the last line of standard output and
// fails the run when any check failed.
func emit(out result) error {
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value", name)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return errors.New("answer checks or requests failed (see report above)")
	}
	return nil
}

// printStamp records where and how the numbers were taken.
func printStamp(e *env, wl string, traced bool) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	digest, err := sourceDigest(e.root)
	if err != nil {
		digest = "unknown: " + err.Error()
	}
	fmt.Printf("stamp cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source_sha256=%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, digest)
	fmt.Printf("stamp workload=%s seed=%d seconds=%d trace=%v clients=%d minupd_flags=%q\n",
		wl, e.seed, e.seconds, traced, clients, minupdFlags(wl))
}

// minupdFlags describes the flags the server is launched with.
func minupdFlags(wl string) string {
	f := "-addr 127.0.0.1:<free> -debug-addr 127.0.0.1:<free>"
	if wl != "classify" {
		f += " -data-dir <prepared catalog>"
	}
	return f + " (all other flags default)"
}

// e2eResult is one untraced end-to-end run.
type e2eResult struct {
	setups        []float64  // wall time of each set-up
	readies       []float64  // launch → /readyz part of each set-up
	setupTicks    []cpuTicks // guest CPU ticks over each set-up
	setupGroup    int        // set-ups per setup_s group
	sts           []*clientState
	dur           time.Duration
	rssMiB        float64
	before, after obs.Snapshot
	checks        checks
	probed        int
	cpuSec        float64   // server CPU over the timed phase, warm-up included
	stealPct      float64   // share of the guest's demanded CPU the hypervisor stole meanwhile
	shares        []float64 // guest CPU share in each second of the timed phase
	setupRef      []float64 // CPU seconds of refWork runs around the set-ups
	windowRef     []float64 // CPU seconds of the refWork run in each second of the timed phase
}

// gated are the end-to-end metrics BENCHMARK.json declares: the ones every
// workload measures whose spread between identical runs stays well inside
// their bounds on a shared VM. The rest are printed, not gated: read p50
// is a short request, and the steal adjustment overstates a short
// request's share of stolen time, so on policy-churn at 35–58% steal it
// spread 0.36; ops_per_s and the p90s spread up to 0.14 and 0.54.
var gated = []string{"setup_s", "op_p50_us", "cpu_us_per_req", "peak_rss_mb"}

// primary is the latency gated as op_p50_us on each workload, the one the
// workload exists to measure: the read on hot-read, mutation → fresh answer
// on policy-churn (the whole write ladder, fsync included), and PUT → solve
// answer on classify.
var primary = map[string]string{"hot-read": "read", "policy-churn": "fresh", "classify": "classify"}

// latencyFamilies are the latencies each workload measures: read (GET
// solve), write (mutation → ack), fresh (mutation → answer carrying its
// version), classify (PUT → solve answer).
var latencyFamilies = map[string][]string{
	"hot-read":     {"read"},
	"policy-churn": {"read", "write", "fresh"},
	"classify":     {"read", "write", "classify"},
}

// report turns a run into the end-to-end metrics and prints them.
func (r *e2eResult) report(wl string) result {
	var all clientState
	windows := make([]float64, 0)
	for _, st := range r.sts {
		all.rec.attempted += st.rec.attempted
		all.rec.failed += st.rec.failed
		all.rec.read.merge(&st.rec.read)
		all.rec.write.merge(&st.rec.write)
		all.rec.fresh.merge(&st.rec.fresh)
		all.rec.classify.merge(&st.rec.classify)
		for w, n := range st.rec.windows {
			for len(windows) <= w {
				windows = append(windows, 0)
			}
			windows[w] += float64(n)
		}
		for _, msg := range st.rec.errs {
			fmt.Println("failure", msg)
		}
	}
	// Only whole seconds count; the last window holds the requests that
	// completed after the deadline.
	if full := int(r.dur / time.Second); len(windows) > full {
		windows = windows[:full]
	}
	failed := all.rec.failed + r.checks.wrong
	attempted := all.rec.attempted
	for _, n := range r.checks.notes {
		fmt.Println("check failed:", n)
	}
	fmt.Printf("checks %d answers checked, %d wrong, %d probed for minimality\n", r.checks.checked, r.checks.wrong, r.probed)

	m := map[string]metric{}
	put := func(name, unit string, v float64, n int) {
		fmt.Printf("metric %-16s %14.4f %-6s n=%d\n", name, v, unit, n)
		m[name] = metric{v, unit}
	}
	na := func(name, why string) { fmt.Printf("metric %-16s n/a (%s)\n", name, why) }
	// Time figures are reported at the reference host's speed (hostSpeed)
	// and steal-adjusted: each latency sample is scaled by the core speed
	// and the guest's CPU share in the second it completed. The raw figures
	// are diags.
	setupSpeed := hostSpeed(r.setupRef)
	factors := make([]float64, len(r.shares))
	for w, sh := range r.shares {
		factors[w] = sh * hostSpeed(r.windowRef[w:w+1])
	}
	fmt.Printf("diag   host speed: refWork took %.4g ms median around the set-ups (%s ms): scaled by %.4f; %.4g ms median in the timed phase, per second %s ms\n",
		1e3*median(append([]float64(nil), r.setupRef...)), fmtFloats(scaleAll(r.setupRef, 1e3)), setupSpeed,
		1e3*median(append([]float64(nil), r.windowRef...)), fmtFloats(scaleAll(r.windowRef, 1e3)))
	adjusted := map[string]*samples{}
	lat := func(prefix string, s *samples) {
		adj := s.scaled(factors)
		adjusted[prefix] = adj
		for _, q := range []float64{0.5, 0.9} {
			name := fmt.Sprintf("%s_%s_us", prefix, pct(q))
			v, ok := adj.quantile(q)
			if !ok {
				na(name, fmt.Sprintf("%d samples: fewer than %d beyond %s", s.n(), minTail, pct(q)))
				continue
			}
			put(name, "us", v, s.n())
			raw, _ := s.quantile(q)
			fmt.Printf("diag   %-16s %14.4f us     n=%d (as measured)\n", name+"_raw", raw, s.n())
		}
		if v, ok := s.quantile(0.99); ok {
			fmt.Printf("diag   %-16s %14.4f us     n=%d\n", prefix+"_p99_us", v, s.n())
		}
		if q, v, ok := s.tail(); ok && q > 0.99 {
			fmt.Printf("diag   %-16s %14.4f us     n=%d (highest percentile with >=%d samples beyond)\n",
				prefix+"_"+pct(q)+"_us", v, s.n(), minTail)
		}
	}

	groups := scaleAll(setupSeconds(r.setups, r.setupTicks, r.setupGroup), setupSpeed)
	put("setup_s", "s", median(append([]float64(nil), groups...)), len(r.setups))
	var ticks cpuTicks
	for _, t := range r.setupTicks {
		ticks.busy += t.busy
		ticks.steal += t.steal
	}
	fmt.Printf("diag   setup_s per group of %d: %s; wall median %.4g s (launch to ready %.4g s); steal %.1f%% of demanded CPU\n",
		r.setupGroup, fmtFloats(groups), median(append([]float64(nil), r.setups...)), median(append([]float64(nil), r.readies...)),
		100*ratio(ticks.steal, ticks.busy+ticks.steal))
	// Throughput is scaled the other way: each window's count over its
	// factor.
	adjWindows := make([]float64, len(windows))
	for w, n := range windows {
		adjWindows[w] = n / factors[min(w, len(factors)-1)]
	}
	put("ops_per_s", "1/s", median(adjWindows), len(windows))
	fmt.Printf("diag   %-16s %14.4f 1/s    n=%d (as measured)\n", "ops_per_s_raw", median(append([]float64(nil), windows...)), len(windows))
	fmt.Printf("metric %-16s %14.6f %-6s n=%d\n", "fail_ratio", ratio(float64(failed), float64(attempted)), "ratio", attempted)
	put("peak_rss_mb", "MiB", r.rssMiB, 1)
	// Server CPU per successful request. The CPU reading spans the warm-up
	// too, so the requests do as well: every one the clients completed.
	var served int
	for _, st := range r.sts {
		served += st.rec.served
	}
	put("cpu_us_per_req", "us", 1e6*r.cpuSec*hostSpeed(r.windowRef)/float64(served), served)
	fmt.Printf("diag   %-16s %14.4f us     n=%d (as measured)\n", "cpu_us_per_req_raw", 1e6*r.cpuSec/float64(served), served)
	fmt.Printf("diag   steal %.1f%% of demanded CPU during the timed phase; guest CPU share per second: %s\n", r.stealPct, fmtFloats(r.shares))
	families := map[string]*samples{"read": &all.rec.read, "write": &all.rec.write, "fresh": &all.rec.fresh, "classify": &all.rec.classify}
	for _, f := range []string{"read", "write", "fresh", "classify"} {
		if contains(latencyFamilies[wl], f) {
			lat(f, families[f])
		} else {
			na(f+"_p50_us", "this workload sends no such request")
			na(f+"_p90_us", "this workload sends no such request")
		}
	}
	if v, ok := adjusted[primary[wl]].quantile(0.5); ok {
		put("op_p50_us", "us", v, adjusted[primary[wl]].n())
		fmt.Printf("diag   op_p50_us is %s_p50_us on this workload\n", primary[wl])
	}
	exhausted := false
	for _, st := range r.sts {
		exhausted = exhausted || st.exhausted
	}
	if exhausted {
		fmt.Println("check failed: a client ran out of pre-generated operations before the timed phase ended")
	}
	out := result{Correct: failed == 0 && !exhausted && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, k := range gated {
		v, ok := m[k]
		if !ok {
			v = metric{math.NaN(), ""}
		}
		out.Metrics[k] = v
	}
	return out
}
