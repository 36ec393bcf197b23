// Command minupd serves minimal-classification solves of a catalog of
// compiled constraint sets over HTTP, with a separate debug listener
// exposing the solver's cumulative telemetry — the ROADMAP's
// production-shape deployment of the compile-once / solve-many split.
//
// Usage:
//
//	minupd [-lattice lat.txt -constraints cons.txt] \
//	       [-data-dir dir] [-fsync always|never] [-shards n] \
//	       [-addr :8080] [-debug-addr 127.0.0.1:6060] \
//	       [-max-inflight 64] [-max-queue 128] [-queue-wait 100ms] \
//	       [-solve-timeout 2s] [-degrade] [-fault spec] [-fault-seed n] \
//	       [-flight-size 256] [-flight-dump-dir auto] [-flight-dump-cap n] \
//	       [-flight-slow 1s] [-slo spec] [-slo-interval 10s]
//
// -lattice/-constraints store an optional static instance in the catalog
// as the policy "static", served by /solve and /trace (404 without it).
// They are refused with -cluster-peers: PUT it through the leader instead.
//
// # Policy catalog
//
// minupd manages a catalog of named, versioned policies (lattice +
// constraint set each), hashed across -shards independent shards (default
// GOMAXPROCS). The catalog is durable when -data-dir is set: every
// mutation is written to that shard's write-ahead log before it is applied
// (fsync per -fsync), each log is periodically compacted into an atomic
// snapshot, shards recover concurrently on startup, and a restart
// reproduces the catalog exactly — a torn final WAL frame is truncated,
// losing at most the interrupted mutation. The directory remembers its
// shard count, so a later -shards value never rehashes existing policies.
//
// Mutations return once durable; compiling and solving the new version
// happens on per-shard background workers unless the request carries
// ?wait=1 to run the refresh inline (appends then report the incremental
// repair, and PUT responses show a warm cache).
//
//	GET    /policies                    index: name, version, etag, shard,
//	                                    and cache state per policy
//	PUT    /policies/{name}             create/replace from JSON
//	                                    {"lattice": ..., "constraints": ...}
//	                                    (?wait=1 warms the cache inline)
//	GET    /policies/{name}             describe one policy (incl. texts)
//	DELETE /policies/{name}             remove it
//	POST   /policies/{name}/constraints append constraint text
//	                                    ({"constraints": ...}); with ?wait=1
//	                                    and a warm solve cache this runs the
//	                                    incremental repair inline, otherwise
//	                                    it answers refresh_pending and the
//	                                    shard worker repairs in background
//	GET    /policies/{name}/solve       minimal classification, memoized:
//	                                    an unchanged policy is served with
//	                                    zero compiles and zero solves
//	                                    (POST works too; ?trace=1 and
//	                                    ?lattice_ops=1 force a fresh solve)
//
// Source problems from the registered problem frontends enter through the
// /problems routes: the instance JSON is parsed and compiled to policy
// source texts, then stored with an ordinary catalog Put — sharding,
// replication, memoized solves, flight records, and SLO gates apply to
// compiled problems unchanged, and the result is served by the /policies
// routes under the instance's name (override with ?name=):
//
//	GET    /problems                    list the problem families
//	POST   /problems/{family}           parse + compile + store an instance
//	                                    (suppress cross-tab table, depinf
//	                                    relation; ?wait=1 and conditional
//	                                    headers as on policy PUT)
//
// Responses carry the policy version as a strong ETag; If-Match gives
// compare-and-swap writes (412 on a lost race) and If-None-Match: *
// create-only PUTs (409 if the name exists).
//
// The service listener answers on the static routes (GET only; other
// methods get 405):
//
//	GET /solve            a fresh solve of the static policy; JSON
//	                      assignment + per-solve stats (add ?lattice_ops=1
//	                      to count lattice operations, ?trace=1 to run the
//	                      solve under a tracer and report its trace ID, and
//	                      ?timeout_ms=N to tighten the solve deadline —
//	                      clamped to [1ms, -solve-timeout])
//	GET /metrics          the metrics registry snapshot as JSON; add
//	                      ?format=prometheus for text exposition format
//	GET /trace            run one fully instrumented solve of the static
//	                      policy and return its span tree
//	                      (?format=json|chrome|flame)
//	GET /healthz          liveness check (process is up)
//	GET /readyz           readiness check: 503 while draining after
//	                      SIGTERM/SIGINT or while the admission queue is
//	                      past its soft overload threshold
//
// # Overload behavior
//
// Solves, appends and ?wait=1 writes run behind a bounded-concurrency
// admission gate: at most -max-inflight requests solve at once, up to
// -max-queue more wait up to -queue-wait for a slot, and everything beyond
// that is shed with 503 + Retry-After (counted as http.shed). Every
// admitted solve runs under a deadline (-solve-timeout, tightened per
// request with ?timeout_ms=).
//
// When a minimal solve cannot be served — its deadline expired, or the
// gate is already past its soft overload threshold and the memo cannot
// answer — the server degrades instead of failing: it answers with the
// Qian-baseline least fixpoint (§4 of the paper), which satisfies every
// secrecy, inference, and association constraint by construction and
// merely over-classifies. Degraded responses carry "degraded": true, the
// reason, and the over-classification cost (upgraded-attribute delta vs.
// the version's memoized minimal answer); each is counted under
// solve.degraded. Disable with -degrade=false to get plain 504/503 errors.
//
// Solver panics never kill the process: the solver converts them to typed
// internal errors (returned as 500, counted as solve.panics), and a
// recovery middleware backstops the handlers themselves (http.panics).
//
// The -fault flag (chaos testing only; see internal/fault) arms a
// deterministic fault injector at the solver's named fault points, e.g.
// -fault 'solve.step:delay:%1:5ms' to slow every solver step.
//
// Every route runs behind a middleware stack: per-route latency histograms
// ("http.<route>.duration_us"), status-class counters, an in-flight gauge,
// request IDs (X-Request-Id echoed or generated), panic recovery, and one
// slog JSON access log line per request carrying the request ID, the
// shed/degraded disposition, and the queue wait (plus the trace ID for
// instrumented solves). Every solve records into a shared metrics registry
// under the "solve.*" names.
//
// # Flight recorder and SLOs
//
// An always-on flight recorder (DESIGN.md §8) keeps one compact record per
// request and per async catalog refresh in a bounded ring (-flight-size).
// Anomalous work — panicked, degraded, errored, or slower than -flight-slow
// — additionally dumps its captured solver event stream and span tree as a
// Perfetto-loadable JSON file under -flight-dump-dir ("auto" resolves to
// <data-dir>/anomalies or artifacts/anomalies; empty disables), rotated to
// stay under -flight-dump-cap bytes. A graceful shutdown writes a final
// recorder snapshot there too.
//
// The -slo flag ("route:p99=250ms,avail=99.9;...") arms per-route
// objectives; a background collector (every -slo-interval) publishes
// 5-minute and 1-hour burn-rate gauges ("slo.<route>.*_milli") plus runtime
// samples (goroutines, heap, GC pause, WAL fsync p99) into the registry,
// and /metrics republishes the burn gauges on every scrape. Degraded
// responses count against availability: the client got a safe answer, not
// the minimal one it asked for.
//
// The debug listener serves the live introspection view /debug/requests
// (active flights, SLO burn rates, per-route latency, recent anomalies
// with their dump files; HTML or ?format=json) alongside the standard
// runtime surface: /debug/vars (expvar, including the registry published
// under the key minup) and /debug/pprof/* for CPU and heap profiles — see the
// "profiling a solve" recipe in EXPERIMENTS.md. Bind it to localhost (the
// default) in production-like settings. On SIGTERM the server flips
// /readyz to not-ready, then drains both listeners: in-flight requests
// complete, new ones are refused.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	rtdebug "runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"minup/internal/catalog"
	"minup/internal/cluster"
	"minup/internal/core"
	"minup/internal/fault"
	"minup/internal/obs"
	"minup/internal/wal"
)

// config carries the serving-policy knobs from flags to newServer, so
// tests construct servers with the same wiring main uses.
type config struct {
	maxInflight  int
	maxQueue     int
	queueWait    time.Duration
	solveTimeout time.Duration
	degrade      bool
	fault        *fault.Injector
	// flight and slo are the always-on observability layer: the flight
	// recorder behind /debug/requests and the per-route burn-rate tracker.
	// Either may be nil (single-handler unit tests), which just disables
	// that layer.
	flight *obs.FlightRecorder
	slo    *obs.SLOTracker
	// cluster is the replication wiring (-cluster-* flags): nil node when
	// minupd runs standalone.
	cluster clusterConfig
}

// expvarKey is the /debug/vars key the metrics registry is published under.
const expvarKey = `minup`

// defaultSLOSpec is the -slo default: both solve-serving routes get a p99
// latency target and three nines of availability.
const defaultSLOSpec = "solve:p99=250ms,avail=99.9;policy.solve:p99=250ms,avail=99.9"

func defaultConfig() config {
	slo, err := obs.ParseSLOSpecs(defaultSLOSpec)
	if err != nil {
		panic("minupd: default SLO spec does not parse: " + err.Error())
	}
	tracker := obs.NewSLOTracker(slo...)
	return config{
		maxInflight:  64,
		maxQueue:     128,
		queueWait:    100 * time.Millisecond,
		solveTimeout: 2 * time.Second,
		degrade:      true,
		slo:          tracker,
		flight:       obs.NewFlightRecorder(obs.FlightOptions{SLO: tracker}),
		cluster:      clusterConfig{maxReplicaLag: 1024},
	}
}

func main() {
	latticePath := flag.String("lattice", "", "path to the lattice description file of the static instance behind /solve and /trace (optional)")
	consPath := flag.String("constraints", "", "path to the constraint file of the static instance behind /solve and /trace (optional)")
	dataDir := flag.String("data-dir", "", "policy-catalog data directory; empty keeps the catalog in memory only")
	fsyncPolicy := flag.String("fsync", "always", "catalog WAL fsync policy: always|never")
	shards := flag.Int("shards", 0, "policy-catalog shard count (0 = GOMAXPROCS); an existing data directory's count always wins")
	addr := flag.String("addr", ":8080", "service listen address")
	debugAddr := flag.String("debug-addr", "127.0.0.1:6060", "debug listen address for /debug/vars and /debug/pprof (empty to disable)")
	def := defaultConfig()
	maxInflight := flag.Int("max-inflight", def.maxInflight, "max concurrent solver requests (solves, constraint appends, ?wait=1 writes) before queueing")
	maxQueue := flag.Int("max-queue", def.maxQueue, "max requests waiting for a solve slot; beyond this, shed with 503")
	queueWait := flag.Duration("queue-wait", def.queueWait, "max time a queued request waits for a slot before being shed")
	solveTimeout := flag.Duration("solve-timeout", def.solveTimeout, "per-request solve budget (ceiling for ?timeout_ms=)")
	degrade := flag.Bool("degrade", def.degrade, "serve the Qian-baseline assignment when a minimal solve misses its deadline or the server is overloaded")
	faultSpec := flag.String("fault", "", "chaos-testing fault spec, e.g. 'solve.step:delay:%1:5ms;pool.get:panic:3' (see internal/fault)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic fault rules")
	faultAdmin := flag.Bool("fault-admin", false, "expose POST/GET /debug/fault on the debug listener to rearm the injector at runtime (chaos testing; implies an installed, initially unarmed injector)")
	flightSize := flag.Int("flight-size", 256, "flight-recorder ring capacity (records kept for /debug/requests)")
	flightDumpDir := flag.String("flight-dump-dir", "auto", "anomaly dump directory; 'auto' puts it under -data-dir (or artifacts/), empty disables dumps")
	flightDumpCap := flag.Int64("flight-dump-cap", 32<<20, "max total bytes of anomaly dumps before the oldest are pruned")
	flightSlow := flag.Duration("flight-slow", time.Second, "duration past which a request is dumped as a slow anomaly (0 disables the slow trigger)")
	sloSpec := flag.String("slo", defaultSLOSpec, "per-route SLOs, 'route:p99=<dur>,avail=<pct>;...' (empty disables SLO tracking)")
	sloInterval := flag.Duration("slo-interval", 10*time.Second, "runtime-collector sampling interval (burn rates, goroutines, heap, GC, WAL fsync p99)")
	var cf clusterFlags
	flag.IntVar(&cf.nodeID, "cluster-node", 0, "this node's id within -cluster-peers (cluster mode)")
	flag.StringVar(&cf.listen, "cluster-listen", "", "replication listen address; empty uses this node's -cluster-peers entry")
	flag.StringVar(&cf.peers, "cluster-peers", "", "full cluster membership as 'id=host:port,...' including this node (enables cluster mode)")
	flag.StringVar(&cf.httpAddr, "cluster-http", "", "this node's advertised HTTP base URL for write redirects, e.g. http://127.0.0.1:8080")
	flag.DurationVar(&cf.tick, "cluster-tick", 50*time.Millisecond, "replication heartbeat cadence")
	flag.DurationVar(&cf.lease, "cluster-lease", 0, "leader lease (0 = 8 ticks)")
	maxReplicaLag := flag.Int64("max-replica-lag", 1024, "frames a follower may trail the leader before /readyz answers 503 (negative disables the check)")
	flag.Parse()
	if err := checkStaticFlags(*latticePath, *consPath, cf.enabled()); err != nil {
		fmt.Fprintln(os.Stderr, "minupd:", err)
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		maxInflight:  *maxInflight,
		maxQueue:     *maxQueue,
		queueWait:    *queueWait,
		solveTimeout: *solveTimeout,
		degrade:      *degrade,
	}
	if *faultSpec != "" {
		var err error
		cfg.fault, err = fault.ParseSpec(*faultSpec, *faultSeed)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "minupd: CHAOS fault injection armed: %s\n", *faultSpec)
	} else if *faultAdmin {
		// An installed-but-unarmed injector costs one atomic load per fault
		// point, so -fault-admin can keep it resident for later rearming.
		cfg.fault = fault.New(*faultSeed)
	}
	if *faultAdmin {
		http.Handle("/debug/fault", faultAdminHandler(cfg.fault))
		fmt.Fprintf(os.Stderr, "minupd: CHAOS fault admin enabled on the debug listener (/debug/fault)\n")
	}
	if *sloSpec != "" {
		specs, err := obs.ParseSLOSpecs(*sloSpec)
		if err != nil {
			fatal(err)
		}
		cfg.slo = obs.NewSLOTracker(specs...)
	}
	dumpDir := *flightDumpDir
	if dumpDir == "auto" {
		if *dataDir != "" {
			dumpDir = filepath.Join(*dataDir, "anomalies")
		} else {
			dumpDir = filepath.Join("artifacts", "anomalies")
		}
	}
	cfg.flight = obs.NewFlightRecorder(obs.FlightOptions{
		Size:          *flightSize,
		DumpDir:       dumpDir,
		DumpCapBytes:  *flightDumpCap,
		SlowThreshold: *flightSlow,
		SLO:           cfg.slo,
	})
	reg := obs.NewRegistry()
	reg.Publish(expvarKey)
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	// /debug/requests lives on the loopback debug listener next to
	// /debug/vars and /debug/pprof: live + recent requests, per-route
	// latency, anomalies with their dump files, SLO burn rates.
	http.Handle("/debug/requests", cfg.flight)
	collector := obs.NewCollector(reg, cfg.slo, *sloInterval)
	collector.Start()

	var walSync wal.SyncPolicy
	switch *fsyncPolicy {
	case "always":
		walSync = wal.SyncAlways
	case "never":
		walSync = wal.SyncNever
	default:
		fatal(fmt.Errorf("unknown -fsync policy %q (want always or never)", *fsyncPolicy))
	}
	catOpts := catalog.Options{
		Dir:     *dataDir,
		Sync:    walSync,
		Metrics: reg,
		Fault:   cfg.fault,
		Shards:  *shards,
		Flight:  cfg.flight,
		Logger:  logger,
	}
	// Cluster mode: the record ring must observe every durable append, so
	// it is wired in before the catalog opens.
	var ring *cluster.RecordLog
	if cf.enabled() {
		ring = cluster.NewRecordLog(0)
		catOpts.OnRecord = ring.Append
	}
	cat, err := catalog.Open(catOpts)
	if err != nil {
		fatal(err)
	}
	if cf.enabled() {
		node, err := openCluster(cat, ring, cf, clusterDeps{dir: *dataDir, reg: reg, logger: logger, fault: cfg.fault})
		if err != nil {
			fatal(err)
		}
		cfg.cluster.node = node
		cfg.cluster.maxReplicaLag = *maxReplicaLag
		fmt.Fprintf(os.Stderr, "minupd: cluster node %d replicating on %s (peers %s, advertised %s)\n",
			cf.nodeID, node.Addr(), cf.peers, cf.httpAddr)
	} else {
		cfg.cluster.maxReplicaLag = *maxReplicaLag
	}
	if *dataDir != "" {
		ri := cat.RecoveryInfo()
		fmt.Fprintf(os.Stderr, "minupd: catalog recovered from %s: %d policies over %d shards (snapshot %d, WAL records %d, torn tail %v) in %s\n",
			*dataDir, cat.Len(), ri.Shards, ri.SnapshotPolicies, ri.WALRecords, ri.TornTail, ri.Duration)
	}
	if *latticePath != "" {
		info, err := storeStatic(cat, *latticePath, *consPath)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "minupd: static instance stored as policy %q version %d (%d attrs, %d constraints)\n",
			staticPolicy, info.Version, info.Attrs, info.Constraints)
	}

	// build_info is the constant-1 info gauge joins dashboards key on:
	// which build, which Go, how many catalog shards, started when.
	reg.Info("build_info", map[string]string{
		"version":    buildVersion(),
		"go_version": runtime.Version(),
		"shards":     strconv.Itoa(cat.RecoveryInfo().Shards),
		"start_time": time.Now().UTC().Format(time.RFC3339),
	})

	srv := newServer(cat, reg, cfg)
	mux := srv.routes(logger)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Both listeners get protocol-level timeouts so a stalled or malicious
	// peer cannot hold a connection goroutine forever. The debug listener's
	// write timeout is generous because /debug/pprof/profile streams for
	// ?seconds= (default 30).
	var dbg *http.Server
	if *debugAddr != "" {
		// expvar and net/http/pprof register on the default mux; serving it
		// on a dedicated listener keeps the runtime surface off the service
		// port.
		dbg = &http.Server{
			Addr:              *debugAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			fmt.Fprintf(os.Stderr, "minupd: debug listener on %s (/debug/vars, /debug/pprof)\n", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "minupd: debug listener: %v\n", err)
			}
		}()
	}

	main := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// shutdownDone closes once the drain goroutine has finished draining
	// both listeners. main() must block on it after ListenAndServe returns:
	// Shutdown closes the listeners first, so ListenAndServe comes back with
	// ErrServerClosed while in-flight requests are still completing.
	shutdownDone := make(chan struct{})
	go func() {
		<-ctx.Done()
		// Flip readiness first: load balancers stop routing here while
		// in-flight solves finish, then both listeners drain on one clock.
		srv.draining.Store(true)
		logger.Info("draining", slog.String("reason", "signal"))
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Drain concurrently: a long-running debug request (pprof profiles
		// stream for up to ?seconds=) must not consume the service
		// listener's share of the drain budget.
		var wg sync.WaitGroup
		if dbg != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dbg.Shutdown(shCtx)
			}()
		}
		main.Shutdown(shCtx)
		wg.Wait()
		close(shutdownDone)
	}()
	fmt.Fprintf(os.Stderr, "minupd: serving the policy catalog on %s (max-inflight=%d queue=%d solve-timeout=%s degrade=%v)\n",
		*addr, cfg.maxInflight, cfg.maxQueue, cfg.solveTimeout, cfg.degrade)
	err = main.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	if errors.Is(err, http.ErrServerClosed) {
		// Only the drain goroutine calls Shutdown, so ErrServerClosed means
		// it is running; wait for in-flight requests to finish before exit.
		<-shutdownDone
	}
	// The cluster node goes first: its peer and server loops read the
	// catalog, so they must stop before the catalog releases its stores.
	if cfg.cluster.node != nil {
		if err := cfg.cluster.node.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "minupd: closing cluster node: %v\n", err)
		}
	}
	// Every catalog mutation is WAL-first, so nothing durable is left to
	// flush; Close still drains the shard workers' queued refreshes before
	// releasing the stores, so no background goroutine outlives the server.
	if err := cat.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "minupd: closing catalog: %v\n", err)
	}
	collector.Stop()
	// Preserve the last moments before the shutdown on disk: the final dump
	// carries the recent ring, the anomaly ring, and per-route latency.
	if name, err := cfg.flight.FinalDump("shutdown"); err != nil {
		fmt.Fprintf(os.Stderr, "minupd: final flight dump: %v\n", err)
	} else if name != "" {
		fmt.Fprintf(os.Stderr, "minupd: final flight dump written: %s\n", filepath.Join(dumpDir, name))
	}
}

// staticPolicy is the reserved catalog name the -lattice/-constraints
// instance is stored under; /solve and /trace serve it.
const staticPolicy = "static"

// checkStaticFlags validates the static-instance flags: they come as a
// pair, and never in cluster mode, where a node-local Put would bypass the
// replication barrier and diverge the replicas.
func checkStaticFlags(latticePath, consPath string, clustered bool) error {
	if (latticePath == "") != (consPath == "") {
		return errors.New("-lattice and -constraints must be given together")
	}
	if latticePath != "" && clustered {
		return fmt.Errorf("-lattice/-constraints cannot be combined with -cluster-peers: PUT the instance to /policies/%s through the leader instead", staticPolicy)
	}
	return nil
}

// storeStatic stores the -lattice/-constraints files as the staticPolicy
// with an ordinary catalog Put, unless a policy recovered from -data-dir
// already holds the same texts.
func storeStatic(cat *catalog.Catalog, latticePath, consPath string) (catalog.PolicyInfo, error) {
	lat, err := os.ReadFile(latticePath)
	if err != nil {
		return catalog.PolicyInfo{}, err
	}
	cons, err := os.ReadFile(consPath)
	if err != nil {
		return catalog.PolicyInfo{}, err
	}
	if cur, err := cat.Get(staticPolicy); err == nil && cur.Lattice == string(lat) && cur.ConstraintText == string(cons) {
		return cur, nil
	}
	return cat.Put(context.Background(), staticPolicy, string(lat), string(cons), catalog.Unconditional)
}

type server struct {
	cat      *catalog.Catalog
	reg      *obs.Registry
	cfg      config
	gate     *gate
	draining atomic.Bool
	// start anchors the process.uptime_seconds gauge.
	start time.Time
}

// newServer wires a server the way main does, so tests share the exact
// production admission/degradation path.
func newServer(cat *catalog.Catalog, reg *obs.Registry, cfg config) *server {
	s := &server{cat: cat, reg: reg, cfg: cfg, start: time.Now()}
	s.gate = newGate(cfg.maxInflight, cfg.maxQueue, cfg.queueWait, &s.draining, reg)
	// Register the degradation counters eagerly so a scrape sees the
	// series before the first overload.
	reg.Counter("solve.degraded")
	s.reg.Counter("http.panics")
	return s
}

// routes builds the service mux with the full middleware stack.
func (s *server) routes(logger *slog.Logger) http.Handler {
	o := httpObs{reg: s.reg, logger: logger, flight: s.cfg.flight, slo: s.cfg.slo}
	mux := http.NewServeMux()
	mux.Handle("/solve", instrument("solve", o, func(w http.ResponseWriter, r *http.Request) {
		s.solvePolicy(w, r, staticPolicy, solveRoute)
	}))
	mux.Handle("/metrics", instrument("metrics", o, s.handleMetrics))
	mux.Handle("/trace", instrument("trace", o, func(w http.ResponseWriter, r *http.Request) {
		s.solvePolicy(w, r, staticPolicy, traceRoute)
	}))
	mux.Handle("/healthz", instrument("healthz", o, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	mux.Handle("/readyz", instrument("readyz", o, s.handleReady))
	mux.Handle("/cluster", instrument("cluster", o, s.handleClusterStatus))
	// Policy-catalog routes use Go 1.22 method patterns, so the mux itself
	// answers mismatched methods with 405 + Allow; the middleware variant
	// without the GET gate keeps the rest of the stack. Route names stay
	// low-cardinality: the policy name never reaches a metric.
	mux.Handle("GET /policies", instrumentMethods("policies", o, s.handlePolicyList))
	mux.Handle("PUT /policies/{name}", instrumentMethods("policy", o, s.handlePolicyPut))
	mux.Handle("GET /policies/{name}", instrumentMethods("policy", o, s.handlePolicyGet))
	mux.Handle("DELETE /policies/{name}", instrumentMethods("policy", o, s.handlePolicyDelete))
	mux.Handle("POST /policies/{name}/constraints", instrumentMethods("policy.constraints", o, s.handlePolicyAppend))
	solve := func(w http.ResponseWriter, r *http.Request) { s.solvePolicy(w, r, r.PathValue("name"), policyRoute) }
	mux.Handle("GET /policies/{name}/solve", instrumentMethods("policy.solve", o, solve))
	mux.Handle("POST /policies/{name}/solve", instrumentMethods("policy.solve", o, solve))
	// Problem-frontend routes: source problems compiled into ordinary
	// catalog policies. Route names stay low-cardinality — the family set
	// is small and fixed at build time.
	mux.Handle("GET /problems", instrumentMethods("problems", o, s.handleProblemList))
	mux.Handle("POST /problems/{family}", instrumentMethods("problem", o, s.handleProblemCreate))
	return mux
}

// handleReady is the readiness probe, distinct from /healthz liveness: a
// live process stops being ready while draining after a signal or while
// the admission queue is past its soft overload threshold, so load
// balancers route around it without restarting it.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if reason, ok := s.clusterReady(); !ok {
		// A replica that cannot vouch for its own freshness routes reads
		// elsewhere rather than serving arbitrarily stale answers.
		http.Error(w, reason, http.StatusServiceUnavailable)
		return
	}
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.gate.overloaded():
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	default:
		fmt.Fprintf(w, "ready (inflight %d)\n", s.gate.inflight())
	}
}

// solveStats is the JSON shape of the solver's stats block.
type solveStats struct {
	Tries          int    `json:"tries"`
	FailedTries    int    `json:"failed_tries"`
	Collapses      int    `json:"collapses"`
	AttrsProcessed int    `json:"attrs_processed"`
	MinlevelCalls  int    `json:"minlevel_calls"`
	TrySteps       int    `json:"try_steps"`
	DescentSteps   int    `json:"descent_steps"`
	LatticeLub     uint64 `json:"lattice_lub,omitempty"`
	LatticeGlb     uint64 `json:"lattice_glb,omitempty"`
	LatticeDom     uint64 `json:"lattice_dominates,omitempty"`
	LatticeCovers  uint64 `json:"lattice_covers,omitempty"`
	PoolHit        bool   `json:"pool_hit"`
	DurationUS     int64  `json:"duration_us"`
}

// solveBudget resolves the request's solve deadline: the -solve-timeout
// flag, tightened by ?timeout_ms= and clamped to [1ms, flag] so a client
// can only shrink its own budget, never grow it past the server's policy.
func (s *server) solveBudget(q url.Values) time.Duration {
	budget := s.cfg.solveTimeout
	if q := q.Get("timeout_ms"); q != "" {
		if ms, err := strconv.ParseInt(q, 10, 64); err == nil {
			d := time.Duration(ms) * time.Millisecond
			if d < time.Millisecond {
				d = time.Millisecond
			}
			if d > s.cfg.solveTimeout {
				d = s.cfg.solveTimeout
			}
			budget = d
		}
	}
	return budget
}

// solveTimedOut reports a solve stopped by its deadline or cancellation.
func solveTimedOut(err error) bool {
	return errors.Is(err, core.ErrCanceled) || errors.Is(err, context.DeadlineExceeded)
}

// writeJSON answers with v as indented JSON under the given status: the
// one response encoder of every JSON route.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The pool gauge is sampled at scrape time: sessions are created on
	// demand, so this tracks peak solve concurrency. The panic gauge
	// counts solver sessions discarded by the recovery guard. SLO burn
	// gauges are republished here too, so a scrape never reads values a
	// full collector interval old.
	s.reg.Gauge("solve.pool.sessions").Set(core.SessionsAllocated())
	s.reg.Gauge("solve.panics_recovered").Set(core.PanicsRecovered())
	s.reg.Gauge("process.uptime_seconds").Set(int64(time.Since(s.start).Seconds()))
	s.cfg.slo.Publish(s.reg)
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.reg.WriteJSON(w)
}

// traceResponse is the JSON answer of /trace: one fully instrumented solve
// and its reconstructed span tree.
type traceResponse struct {
	TraceID string       `json:"trace_id"`
	Spans   obs.SpanNode `json:"spans"`
}

// writeTrace answers /trace with the span tree of the solve it ran, in
// the requested format (json, chrome, or flame).
func writeTrace(w http.ResponseWriter, format, traceID string, root *obs.Span) {
	switch format {
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChromeTrace(w, root)
	case "flame":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		obs.WriteFlameSummary(w, root)
	default:
		writeJSON(w, http.StatusOK, traceResponse{TraceID: traceID, Spans: root.Node(root.StartTime())})
	}
}

// buildVersion reports the best version identifier the binary carries: the
// module version if stamped, else the VCS revision (dirty-suffixed), else
// "devel".
func buildVersion() string {
	bi, ok := rtdebug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		return rev + dirty
	}
	return "devel"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minupd:", err)
	os.Exit(1)
}
