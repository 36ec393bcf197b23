package catalog

import (
	"encoding/json"
	"strconv"
	"sync/atomic"

	"minup/internal/constraint"
	"minup/internal/core"
)

// Answer is the JSON shape of one solve answer: the policy version it
// classifies, whether the memo served it, the minimal assignment as
// attribute name → level name, and the solver's stats block. minupd embeds
// it in every solve response; the catalog renders it itself for memo hits.
type Answer struct {
	Name       string            `json:"name"`
	Version    uint64            `json:"version"`
	CacheHit   bool              `json:"cache_hit"`
	Assignment map[string]string `json:"assignment"`
	Stats      AnswerStats       `json:"stats"`
}

// AnswerStats is the JSON shape of the solver's stats block.
type AnswerStats struct {
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

// NewAnswerStats maps the solver's stats to their JSON shape.
func NewAnswerStats(st core.Stats) AnswerStats {
	return AnswerStats{
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

// ETag formats a policy version as a strong entity tag.
func ETag(version uint64) string { return `"` + strconv.FormatUint(version, 10) + `"` }

// memo is one policy version's memoized answer: the minimal assignment,
// the stats of the solve or repair that produced it, and the memo-hit
// answer rendered on the version's first hit. Every mutation drops the
// policy's memo and every install assigns a new one, so a memo — and the
// body it carries — never outlives its version.
type memo struct {
	assignment constraint.Assignment
	stats      core.Stats
	hit        atomic.Pointer[renderedHit]
}

// solution returns the memoized assignment, nil for a nil (cold) memo.
func (m *memo) solution() constraint.Assignment {
	if m == nil {
		return nil
	}
	return m.assignment
}

// renderedHit is a memo hit's answer, built once per version and shared
// read-only by every later hit.
type renderedHit struct {
	body []byte // indented JSON of the Answer plus a newline
	etag string
}

// rendered returns the version's memo-hit answer, rendering it on first
// use. name and version must be the policy's, read together with m under
// the shard lock, and assignment m's assignment formatted by
// FormatAssignment; it is read only when the answer is rendered. Racing
// first hits may both render; the CAS keeps one copy.
func (m *memo) rendered(name string, version uint64, assignment map[string]string) *renderedHit {
	if r := m.hit.Load(); r != nil {
		return r
	}
	ans := Answer{
		Name:       name,
		Version:    version,
		CacheHit:   true,
		Assignment: assignment,
		Stats:      NewAnswerStats(m.stats),
	}
	out, err := json.MarshalIndent(ans, "", "  ")
	if err != nil {
		panic(err) // strings, integers and booleans always marshal
	}
	body := make([]byte, len(out)+1)
	copy(body, out)
	body[len(out)] = '\n'
	r := &renderedHit{body: body, etag: ETag(version)}
	if !m.hit.CompareAndSwap(nil, r) {
		return m.hit.Load()
	}
	return r
}
