// The /policies surface: the stateful side of minupd. Where /solve serves
// one constraint set compiled at boot, these routes manage a durable
// sharded catalog of named, versioned policies — created and replaced with
// PUT, refined with constraint appends, and served from a per-version
// memoized solve cache.
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
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"minup/internal/catalog"
	"minup/internal/core"
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

// policySolveResponse is the JSON answer of GET/POST /policies/{name}/solve.
type policySolveResponse struct {
	Name       string            `json:"name"`
	Version    uint64            `json:"version"`
	CacheHit   bool              `json:"cache_hit"`
	Assignment map[string]string `json:"assignment"`
	Stats      solveStats        `json:"stats"`
}

// etag formats a policy version as a strong entity tag.
func etag(version uint64) string { return `"` + strconv.FormatUint(version, 10) + `"` }

// mutateOptionsFrom reads the ?wait=1 query knob: wait forces the solver
// refresh to run inline on this request instead of a shard worker.
func mutateOptionsFrom(r *http.Request) catalog.MutateOptions {
	switch r.URL.Query().Get("wait") {
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

// policyError maps a catalog error to its status: 404 unknown name, 409
// create-only conflict, 412 lost version race, 500 storage failure, 503
// catalog closed (shutdown), solver failures as writeSolveError maps them,
// and 400 for everything else (bad names, unparseable source text).
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
	default:
		if !writeSolveError(w, r, err) {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
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
// decoded its body: ?wait=1 admission (an inline refresh compiles and
// solves, so it takes a gate slot and the solve budget), the catalog Put
// with its cluster sequence number, the majority barrier, and the ETag. It
// returns the stored version and its status (201 for a new policy, 200 for
// a replacement), or ok=false once it has answered the request itself.
func (s *server) storePolicy(w http.ResponseWriter, r *http.Request, name, latticeText, constraintText string, ifVersion int64) (info catalog.PolicyInfo, status int, ok bool) {
	opts := mutateOptionsFrom(r)
	ctx := r.Context()
	if opts.Wait {
		var adm admission
		if ctx, adm, ok = s.admit(w, r); !ok {
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
	info, status, ok := s.storePolicy(w, r, r.PathValue("name"), req.Lattice, req.Constraints, ifVersion)
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
// /solve.
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
	ctx, adm, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer adm.release()
	if ri := infoFrom(r.Context()); ri != nil {
		ri.policy = r.PathValue("name")
	}
	opts := mutateOptionsFrom(r)
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

// handlePolicySolve serves GET/POST /policies/{name}/solve from the
// catalog's memoized cache; only a cache miss (the first solve of a
// version) compiles and solves, under the admission gate's budget.
func (s *server) handlePolicySolve(w http.ResponseWriter, r *http.Request) {
	ctx, adm, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer adm.release()
	ri := infoFrom(r.Context())
	if ri != nil {
		ri.policy = r.PathValue("name")
	}
	res, err := s.cat.Solve(ctx, r.PathValue("name"))
	if err != nil {
		s.policyError(w, r, err)
		return
	}
	if ri != nil {
		ri.shard = res.Info.Shard
		ri.cacheHit = res.CacheHit
		ri.stats = flightStatsOf(res.Stats)
	}
	w.Header().Set("ETag", etag(res.Info.Version))
	writeJSON(w, http.StatusOK, policySolveResponse{
		Name:       res.Info.Name,
		Version:    res.Info.Version,
		CacheHit:   res.CacheHit,
		Assignment: res.Assignment,
		Stats:      newSolveStats(res.Stats),
	})
}

// newSolveStats maps the solver's stats block to its JSON shape, shared by
// /solve and /policies/{name}/solve.
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
