// The /policies surface: the stateful side of minupd. These routes manage a
// durable sharded catalog of named, versioned policies — created and
// replaced with PUT, refined with constraint appends, and served from a
// per-version memoized solve cache. /solve and /trace are aliases of the
// solve route for the static policy stored from -lattice/-constraints.
//
// Mutations answer as soon as the record is durable and the new version is
// visible; the solver work (compile, memoized solve, incremental repair)
// runs on the catalog's per-shard background workers. Add ?wait=1 to a PUT
// or append to run that refresh inline instead: the response then reflects
// a warm cache, and appends report how the memoized solution was repaired.
// Without it, an append whose refresh is still queued carries
// "refresh_pending": true.
//
// Optimistic concurrency is plain HTTP: every response carrying policy
// state sets an ETag holding the version; writers send If-Match with the
// version they read (412 on a lost race) or If-None-Match: * to insist on
// creating (409 if the name exists). Unconditional writes are allowed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"minup/internal/baseline"
	"minup/internal/catalog"
	"minup/internal/core"
	"minup/internal/obs"
)

// maxPolicyBody bounds PUT/POST request bodies; policy source texts are
// human-scale.
const maxPolicyBody = 4 << 20

// policyRequest is the JSON body of PUT /policies/{name} (both fields
// required) and POST /policies/{name}/constraints (constraints only).
type policyRequest struct {
	Lattice     string `json:"lattice"`
	Constraints string `json:"constraints"`
}

// policyIndexEntry is one row of GET /policies: the policy's identity and
// cache state plus its version rendered as the ETag a conditional writer
// would send back.
type policyIndexEntry struct {
	catalog.PolicyInfo
	ETag string `json:"etag"`
}

// policyListResponse is the JSON answer of GET /policies.
type policyListResponse struct {
	Count    int                `json:"count"`
	Policies []policyIndexEntry `json:"policies"`
}

// policyAppendResponse reports an accepted constraint append: the new
// version plus how the solution cache was maintained — repaired
// incrementally from the memoized solution (repaired: true, with the
// repair's work counts, ?wait=1 only), left for a shard worker
// (refresh_pending: true), or left cold for the next solve to fill.
type policyAppendResponse struct {
	catalog.PolicyInfo
	Repaired         bool `json:"repaired"`
	RepairViolated   int  `json:"repair_violated,omitempty"`
	RepairRecomputed int  `json:"repair_recomputed,omitempty"`
	RepairFellBack   bool `json:"repair_fell_back,omitempty"`
	RefreshPending   bool `json:"refresh_pending,omitempty"`
}

// policySolveResponse is the JSON answer of GET/POST /policies/{name}/solve
// and of its /solve alias.
type policySolveResponse struct {
	Name       string            `json:"name"`
	Version    uint64            `json:"version"`
	CacheHit   bool              `json:"cache_hit"`
	Assignment map[string]string `json:"assignment"`
	Stats      solveStats        `json:"stats"`
	TraceID    string            `json:"trace_id,omitempty"`

	// A degraded answer comes from the Qian baseline: it satisfies every
	// constraint but over-classifies. DegradeReason is "deadline" or
	// "overload"; UpgradedAttrs counts attributes above bottom, and
	// UpgradeDelta compares that with the version's memoized minimal
	// answer (absent while none is memoized).
	Degraded      bool   `json:"degraded,omitempty"`
	DegradeReason string `json:"degrade_reason,omitempty"`
	UpgradedAttrs int    `json:"upgraded_attrs,omitempty"`
	UpgradeDelta  *int   `json:"upgrade_delta,omitempty"`
}

// etag formats a policy version as a strong entity tag.
func etag(version uint64) string { return `"` + strconv.FormatUint(version, 10) + `"` }

// mutateOptionsFrom reads the ?wait=1 query knob: wait forces the solver
// refresh to run inline on this request instead of a shard worker.
func mutateOptionsFrom(q url.Values) catalog.MutateOptions {
	switch q.Get("wait") {
	case "1", "true":
		return catalog.MutateOptions{Wait: true}
	}
	return catalog.MutateOptions{}
}

// preconditionFrom maps the request's conditional headers to a catalog
// version precondition: If-None-Match: * means create-only, If-Match "N"
// means the policy must still be at version N, If-Match: * or no header
// means unconditional.
func preconditionFrom(r *http.Request) (int64, error) {
	if inm := strings.TrimSpace(r.Header.Get("If-None-Match")); inm != "" {
		if inm != "*" {
			return 0, fmt.Errorf("If-None-Match only supports *, got %q", inm)
		}
		return catalog.MustNotExist, nil
	}
	im := strings.TrimSpace(r.Header.Get("If-Match"))
	if im == "" || im == "*" {
		return catalog.Unconditional, nil
	}
	v, err := strconv.ParseUint(strings.Trim(im, `"`), 10, 63)
	if err != nil || v == 0 {
		return 0, fmt.Errorf("malformed If-Match %q: want a version ETag like %q", im, etag(3))
	}
	return int64(v), nil
}

// decodePolicyBody reads a bounded JSON body into dst, answering 400
// itself on failure.
func decodePolicyBody(w http.ResponseWriter, r *http.Request, dst *policyRequest) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPolicyBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		http.Error(w, "decoding body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// policyError is minupd's one mapping of catalog and solver errors to
// statuses: 404 unknown name, 409 create-only conflict, 412 lost version
// race, 500 storage failure, 503 catalog closed (shutdown), 408 when the
// client went away mid-solve, 504 when the solve budget expired, 422 for an
// unsolvable instance, an opaque 500 for a recovered solver panic (the
// solver logs the stack at recovery; it never reaches the body), and 400
// for everything else (bad names, unparseable source text).
func (s *server) policyError(w http.ResponseWriter, r *http.Request, err error) {
	if ri := infoFrom(r.Context()); ri != nil {
		ri.errText = err.Error()
	}
	switch {
	case errors.Is(err, catalog.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, catalog.ErrExists):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, catalog.ErrVersionMismatch):
		http.Error(w, err.Error(), http.StatusPreconditionFailed)
	case errors.Is(err, catalog.ErrStorage):
		http.Error(w, err.Error(), http.StatusInternalServerError)
	case errors.Is(err, catalog.ErrClosed):
		// The catalog only closes during shutdown; tell the client to go
		// elsewhere rather than blaming the request.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case solveTimedOut(err) && r.Context().Err() != nil:
		http.Error(w, err.Error(), http.StatusRequestTimeout)
	case solveTimedOut(err):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, core.ErrUnsolvable):
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	case errors.Is(err, core.ErrInternal):
		http.Error(w, "internal solver error", http.StatusInternalServerError)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// writeGate fences a mutation: the cluster write gate, then the request's
// version precondition. It returns false once it has answered the request
// itself (307/503 from the cluster gate, 400 for a malformed precondition).
func (s *server) writeGate(w http.ResponseWriter, r *http.Request) (ifVersion int64, ok bool) {
	if !s.clusterWriteGate(w, r) {
		return 0, false
	}
	ifVersion, err := preconditionFrom(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return 0, false
	}
	return ifVersion, true
}

// storePolicy is the store sequence shared by PUT /policies/{name} and
// POST /problems/{family} once the handler has passed writeGate and
// decoded its body (q is the request's parsed query): ?wait=1 admission (an
// inline refresh compiles and solves, so it takes a gate slot and the solve
// budget), the catalog Put with its cluster sequence number, the majority
// barrier, and the ETag. It returns the stored version and its status (201
// for a new policy, 200 for a replacement), or ok=false once it has answered
// the request itself.
func (s *server) storePolicy(w http.ResponseWriter, r *http.Request, q url.Values, name, latticeText, constraintText string, ifVersion int64) (info catalog.PolicyInfo, status int, ok bool) {
	opts := mutateOptionsFrom(q)
	ctx := r.Context()
	if opts.Wait {
		var adm admission
		if ctx, adm, ok = s.admit(w, r, q); !ok {
			return info, 0, false
		}
		defer adm.release()
	}
	ri := infoFrom(r.Context())
	if ri != nil {
		ri.policy = name
	}
	var seq uint64
	if s.cfg.cluster.node != nil {
		opts.SeqOut = &seq
	}
	info, err := s.cat.Put(ctx, name, latticeText, constraintText, ifVersion, opts)
	if err != nil {
		s.policyError(w, r, err)
		return info, 0, false
	}
	if ri != nil {
		ri.shard = info.Shard
	}
	if !s.clusterBarrier(r.Context(), w, r, info.Shard, seq) {
		return info, 0, false
	}
	w.Header().Set("ETag", etag(info.Version))
	if info.Version == 1 {
		return info, http.StatusCreated, true
	}
	return info, http.StatusOK, true
}

func (s *server) handlePolicyList(w http.ResponseWriter, _ *http.Request) {
	infos := s.cat.List()
	entries := make([]policyIndexEntry, len(infos))
	for i, info := range infos {
		entries[i] = policyIndexEntry{PolicyInfo: info, ETag: etag(info.Version)}
	}
	writeJSON(w, http.StatusOK, policyListResponse{Count: len(entries), Policies: entries})
}

func (s *server) handlePolicyGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.cat.Get(r.PathValue("name"))
	if err != nil {
		s.policyError(w, r, err)
		return
	}
	w.Header().Set("ETag", etag(info.Version))
	writeJSON(w, http.StatusOK, info)
}

func (s *server) handlePolicyPut(w http.ResponseWriter, r *http.Request) {
	ifVersion, ok := s.writeGate(w, r)
	if !ok {
		return
	}
	var req policyRequest
	if !decodePolicyBody(w, r, &req) {
		return
	}
	if req.Lattice == "" || req.Constraints == "" {
		http.Error(w, `body must carry both "lattice" and "constraints" text`, http.StatusBadRequest)
		return
	}
	info, status, ok := s.storePolicy(w, r, r.URL.Query(), r.PathValue("name"), req.Lattice, req.Constraints, ifVersion)
	if !ok {
		return
	}
	writeJSON(w, status, info)
}

func (s *server) handlePolicyDelete(w http.ResponseWriter, r *http.Request) {
	ifVersion, ok := s.writeGate(w, r)
	if !ok {
		return
	}
	var opts catalog.MutateOptions
	var seq uint64
	if s.cfg.cluster.node != nil {
		opts.SeqOut = &seq
	}
	name := r.PathValue("name")
	if err := s.cat.Delete(r.Context(), name, ifVersion, opts); err != nil {
		s.policyError(w, r, err)
		return
	}
	if !s.clusterBarrier(r.Context(), w, r, s.cat.ShardOf(name), seq) {
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePolicyAppend runs POST /policies/{name}/constraints. Appends do
// solver work — at least the solvability check, and with ?wait=1 the full
// inline repair — so they pass the same admission gate and solve budget as
// the solve routes.
func (s *server) handlePolicyAppend(w http.ResponseWriter, r *http.Request) {
	ifVersion, ok := s.writeGate(w, r)
	if !ok {
		return
	}
	var req policyRequest
	if !decodePolicyBody(w, r, &req) {
		return
	}
	if req.Constraints == "" {
		http.Error(w, `body must carry "constraints" text`, http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	ctx, adm, ok := s.admit(w, r, q)
	if !ok {
		return
	}
	defer adm.release()
	if ri := infoFrom(r.Context()); ri != nil {
		ri.policy = r.PathValue("name")
	}
	opts := mutateOptionsFrom(q)
	var seq uint64
	if s.cfg.cluster.node != nil {
		opts.SeqOut = &seq
	}
	res, err := s.cat.Append(ctx, r.PathValue("name"), req.Constraints, ifVersion, opts)
	if err != nil {
		s.policyError(w, r, err)
		return
	}
	if ri := infoFrom(r.Context()); ri != nil {
		ri.shard = res.Info.Shard
	}
	if !s.clusterBarrier(r.Context(), w, r, res.Info.Shard, seq) {
		return
	}
	w.Header().Set("ETag", etag(res.Info.Version))
	writeJSON(w, http.StatusOK, policyAppendResponse{
		PolicyInfo:       res.Info,
		Repaired:         res.Repaired,
		RepairViolated:   res.Repair.ViolatedConstraints,
		RepairRecomputed: res.Repair.Recomputed,
		RepairFellBack:   res.Repair.FellBack,
		RefreshPending:   res.Pending,
	})
}

// The solve routes: GET/POST /policies/{name}/solve, and its /solve and
// /trace aliases for the static policy, which solve afresh on every
// request (/trace answers with the span tree and never degrades).
const (
	policyRoute = iota
	solveRoute
	traceRoute
)

// solvePolicy is minupd's one solve-serving path. Behind the admission
// gate it answers from the catalog: a memo hit costs no solve, while a
// fresh solve (the aliases, ?trace=1, ?lattice_ops=1) runs in full and
// leaves the memo alone. Unless degradation is off, a request past the
// gate's soft overload threshold that the memo cannot answer, and a solve
// that misses its deadline, get the Qian baseline instead.
func (s *server) solvePolicy(w http.ResponseWriter, r *http.Request, name string, route int) {
	q := r.URL.Query()
	ctx, adm, ok := s.admit(w, r, q)
	if !ok {
		return
	}
	defer adm.release()
	traced := route == traceRoute || q.Get("trace") == "1"
	opt := catalog.SolveOptions{LatticeOps: q.Get("lattice_ops") == "1"}
	opt.Fresh = route != policyRoute || traced || opt.LatticeOps
	degrade := s.cfg.degrade && route != traceRoute
	// Soft overload: the queue behind us is filling, so only the memo may
	// answer instead of a solve burning its full budget.
	opt.CacheOnly = degrade && s.gate.overloaded()
	ri := infoFrom(r.Context())
	if ri != nil {
		ri.policy = name
		if ri.flight != nil {
			// Arm anomaly capture for any solve the catalog runs: its event
			// stream is dumped if this request ends slow, errored or
			// degraded.
			opt.Capture = ri.flight
		}
	}
	var root *obs.Span
	var traceID string
	if traced && !opt.CacheOnly {
		tr := obs.NewTracer()
		root, traceID = tr.Start("request"), tr.TraceID()
		ctx = obs.ContextWithSpan(ctx, root)
		if ri != nil {
			ri.traceID = traceID
			if ri.flight != nil {
				ri.flight.SetSpan(root)
			}
		}
	}
	res, err := s.cat.Solve(ctx, name, opt)
	if root != nil {
		root.End()
	}
	switch {
	case opt.CacheOnly && err == nil && (opt.Fresh || !res.CacheHit):
		s.serveDegraded(w, r, res, "overload", adm.budget)
	case degrade && res.Set != nil && r.Context().Err() == nil && solveTimedOut(err):
		// A deadline miss degrades unless the client already went away.
		s.serveDegraded(w, r, res, "deadline", adm.budget)
	case err != nil:
		s.policyError(w, r, err)
	default:
		if ri != nil {
			ri.shard, ri.cacheHit = res.Info.Shard, res.CacheHit
			ri.stats = obs.FlightStats{
				Tries:       res.Stats.Tries,
				FailedTries: res.Stats.FailedTries,
				Collapses:   res.Stats.Collapses,
				TrySteps:    res.Stats.TrySteps,
				SolveUS:     res.Stats.Duration.Microseconds(),
			}
		}
		if route == traceRoute {
			writeTrace(w, q.Get("format"), traceID, root)
			return
		}
		w.Header().Set("ETag", etag(res.Info.Version))
		writeJSON(w, http.StatusOK, policySolveResponse{
			Name:       res.Info.Name,
			Version:    res.Info.Version,
			CacheHit:   res.CacheHit,
			Assignment: res.Assignment,
			Stats:      newSolveStats(res.Stats),
			TraceID:    traceID,
		})
	}
}

// serveDegraded answers with the Qian-baseline least fixpoint (§4 of the
// paper) for the version res describes: satisfying — hence safe to serve —
// but over-classified. The baseline runs on a fresh budget detached from
// the (possibly already expired) solve deadline, though still abandoned if
// the client disconnects.
func (s *server) serveDegraded(w http.ResponseWriter, r *http.Request, res catalog.SolveResult, reason string, budget time.Duration) {
	start := time.Now()
	qctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), budget)
	defer cancel()
	m, err := baseline.QianContext(qctx, res.Set)
	if err != nil {
		// No minimal answer and no baseline either — shed honestly.
		w.Header().Set("Retry-After", "1")
		http.Error(w, "degraded solve failed: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	if err := core.Verify(res.Set, m); err != nil {
		// Defense in depth: never serve an unverified fallback.
		http.Error(w, "degraded solve produced an invalid assignment: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.reg.Counter("solve.degraded").Inc()
	s.reg.Counter("solve.degraded." + reason).Inc()
	if ri := infoFrom(r.Context()); ri != nil {
		ri.degraded, ri.degradeReason = true, reason
	}
	out := policySolveResponse{
		Name:          res.Info.Name,
		Version:       res.Info.Version,
		Assignment:    catalog.FormatAssignment(res.Set, m),
		Degraded:      true,
		DegradeReason: reason,
		UpgradedAttrs: baseline.CountUpgraded(res.Set, m),
	}
	if res.Memo != nil {
		delta := out.UpgradedAttrs - baseline.CountUpgraded(res.Set, res.Memo)
		out.UpgradeDelta = &delta
		s.reg.Gauge("solve.degraded.upgrade_delta").Set(int64(delta))
	}
	out.Stats.DurationUS = time.Since(start).Microseconds()
	writeJSON(w, http.StatusOK, out)
}

// newSolveStats maps the solver's stats block to its JSON shape.
func newSolveStats(st core.Stats) solveStats {
	return solveStats{
		Tries:          st.Tries,
		FailedTries:    st.FailedTries,
		Collapses:      st.Collapses,
		AttrsProcessed: st.AttrsProcessed,
		MinlevelCalls:  st.MinlevelCalls,
		TrySteps:       st.TrySteps,
		DescentSteps:   st.DescentSteps,
		LatticeLub:     st.LatticeOps.Lub,
		LatticeGlb:     st.LatticeOps.Glb,
		LatticeDom:     st.LatticeOps.Dominates,
		LatticeCovers:  st.LatticeOps.Covers,
		PoolHit:        st.PoolHit,
		DurationUS:     st.Duration.Microseconds(),
	}
}
