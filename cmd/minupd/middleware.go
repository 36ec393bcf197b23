package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"minup/internal/obs"
)

// requestInfo is the per-request mutable record shared between the
// middleware and the handler through the request context: the middleware
// fills the request ID and opens the flight record before the handler runs;
// the handler annotates the record (trace ID, policy identity, shed /
// degraded disposition, solver stats, error text); and the middleware reads
// it all back when it completes the flight record and writes the structured
// access log line — so log lines and flight records always agree.
type requestInfo struct {
	id      string
	traceID string

	flight *obs.ActiveFlight

	queueWait     time.Duration
	shed          bool
	degraded      bool
	degradeReason string
	panicked      bool
	cacheHit      bool
	policy        string
	shard         int
	errText       string
	stats         obs.FlightStats
}

type requestInfoKey struct{}

// infoFrom returns the request's info record, or nil outside the
// middleware stack (tests calling handlers directly).
func infoFrom(ctx context.Context) *requestInfo {
	ri, _ := ctx.Value(requestInfoKey{}).(*requestInfo)
	return ri
}

// httpObs bundles the middleware's observability dependencies: the metrics
// registry (required), the structured logger (required), and the flight
// recorder and SLO tracker (both optional — nil just disables that layer,
// which is what unit tests exercising a single handler want).
type httpObs struct {
	reg    *obs.Registry
	logger *slog.Logger
	flight *obs.FlightRecorder
	slo    *obs.SLOTracker
}

// statusWriter captures the status code a handler writes so the middleware
// can log it and bump the right status-class counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// newRequestID returns 8 random bytes in hex; on entropy failure a fixed
// marker, which only degrades log correlation.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// statusClasses are the status-class counter suffixes, indexed by
// statusClass.
var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

// statusClass maps a status code to its index in statusClasses.
func statusClass(code int) int {
	switch {
	case code >= 500:
		return 3
	case code >= 400:
		return 2
	case code >= 300:
		return 1
	default:
		return 0
	}
}

// instrument wraps one route with the minupd middleware stack: GET-only
// method gating (405 + Allow), request IDs (X-Request-Id echoed or
// generated), panic recovery (a panicking handler answers 500 and bumps
// http.panics instead of killing the connection goroutine unlogged), an
// in-flight gauge, a per-route latency histogram, per-route status-class
// counters, a flight record per request, SLO accounting, and one structured
// access-log line per request carrying the request ID, the shed/degraded
// disposition, the queue wait, and — when the handler ran an instrumented
// solve — the trace ID.
//
// The bookkeeping runs in a defer so a panicking request is still counted,
// timed, logged, and flight-recorded like any other before the recovery
// answers it.
//
// The histogram and the 2xx counter are registered eagerly at wrap time so
// a Prometheus scrape sees the route's series before its first request.
func instrument(route string, o httpObs, next http.HandlerFunc) http.Handler {
	inner := instrumentMethods(route, o, next)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			o.reg.Counter("http." + route + ".status.4xx").Inc()
			return
		}
		inner.ServeHTTP(w, r)
	})
}

// instrumentMethods is instrument without the GET-only gate, for routes
// registered with ServeMux method patterns ("PUT /policies/{name}") —
// there the mux itself answers mismatched methods with 405 and the right
// Allow set. Several method patterns may share one route name; the eager
// metric registration is get-or-create, so the series are shared too.
func instrumentMethods(route string, o httpObs, next http.HandlerFunc) http.Handler {
	hist := o.reg.Histogram("http."+route+".duration_us", obs.DurationBucketsUS)
	// Status-class counters, cached so a request neither builds a counter
	// name nor takes the registry lock. Only 2xx registers eagerly; the
	// other classes register on the route's first answer in them, so a
	// scrape lists only the classes a route has answered.
	var status [len(statusClasses)]atomic.Pointer[obs.Counter]
	status[0].Store(o.reg.Counter("http." + route + ".status.2xx"))
	inFlight := o.reg.Gauge("http.in_flight")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ri := &requestInfo{id: r.Header.Get("X-Request-Id")}
		if ri.id == "" {
			ri.id = newRequestID()
		}
		w.Header().Set("X-Request-Id", ri.id)
		if o.flight != nil {
			ri.flight = o.flight.Begin(route, r.Method, ri.id)
		}
		sw := &statusWriter{ResponseWriter: w}
		inFlight.Inc()
		start := time.Now()
		defer func() {
			rec := recover()
			if rec == http.ErrAbortHandler { //nolint:errorlint // net/http compares this sentinel by identity
				// net/http's sentinel for deliberately aborting a response:
				// not a bug, so skip the 500/counter/log handling and let the
				// server suppress it as designed. Keep the gauge and the
				// flight ring honest first, since re-panicking skips the rest
				// of this defer.
				inFlight.Dec()
				if ri.flight != nil {
					o.flight.End(ri.flight, obs.FlightRecord{
						Status: 499, Err: "response aborted",
					})
				}
				panic(rec)
			}
			if rec != nil {
				ri.panicked = true
				o.reg.Counter("http.panics").Inc()
				o.logger.Error("handler panic",
					slog.String("path", r.URL.Path),
					slog.String("request_id", ri.id),
					slog.Any("panic", rec),
					slog.String("stack", string(debug.Stack())),
				)
				if sw.status == 0 {
					// Nothing written yet; the client can still get a clean
					// 500. Otherwise the truncated response has to speak for
					// itself.
					http.Error(sw, "internal server error", http.StatusInternalServerError)
				}
			}
			dur := time.Since(start)
			inFlight.Dec()
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			hist.Observe(uint64(dur.Microseconds()))
			class := statusClass(sw.status)
			counter := status[class].Load()
			if counter == nil {
				counter = o.reg.Counter("http." + route + ".status." + statusClasses[class])
				status[class].Store(counter)
			}
			counter.Inc()
			if ri.flight != nil {
				o.flight.End(ri.flight, obs.FlightRecord{
					Status:        sw.status,
					DurationUS:    dur.Microseconds(),
					QueueWaitUS:   ri.queueWait.Microseconds(),
					Shed:          ri.shed,
					Degraded:      ri.degraded,
					DegradeReason: ri.degradeReason,
					Panicked:      ri.panicked,
					CacheHit:      ri.cacheHit,
					Policy:        ri.policy,
					Shard:         ri.shard,
					TraceID:       ri.traceID,
					Err:           ri.errText,
					Stats:         ri.stats,
				})
			}
			if o.slo != nil {
				// Degraded answers return 200 but burn availability budget:
				// the client got a safe answer, not the minimal one it asked
				// for.
				o.slo.Record(route, dur, sw.status >= 500 || ri.degraded)
			}
			attrs := [9]slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Int64("duration_us", dur.Microseconds()),
				slog.String("request_id", ri.id),
				slog.Bool("shed", ri.shed),
				slog.Bool("degraded", ri.degraded),
				slog.Int64("queue_wait_us", ri.queueWait.Microseconds()),
			}
			n := 8
			if ri.traceID != "" {
				attrs[n] = slog.String("trace_id", ri.traceID)
				n++
			}
			o.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs[:n]...)
		}()
		next(sw, r.WithContext(context.WithValue(r.Context(), requestInfoKey{}, ri)))
	})
}
