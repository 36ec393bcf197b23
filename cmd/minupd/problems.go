// The /problems surface: source-problem ingestion through the problem
// frontends. POST /problems/{family} accepts a frontend's JSON instance
// format (a suppress cross-tab table, a depinf relation), compiles it to
// policy source texts, and stores it through the ordinary catalog Put —
// so sharding, replication, memoized solves, flight records, and SLO
// gates all apply to compiled problems exactly as to hand-written
// policies. The response carries the stored PolicyInfo plus the compiled
// shape, and the policy is then served by the normal /policies routes.
package main

import (
	"io"
	"net/http"
	"strings"

	"minup/internal/catalog"
	"minup/internal/frontend"
	_ "minup/internal/frontend/depinf"   // registers the "depinf" problem family
	_ "minup/internal/frontend/suppress" // registers the "suppress" problem family
)

// problemFamilyEntry is one row of GET /problems.
type problemFamilyEntry struct {
	Family   string `json:"family"`
	Describe string `json:"describe"`
}

// problemListResponse is the JSON answer of GET /problems.
type problemListResponse struct {
	Count    int                  `json:"count"`
	Families []problemFamilyEntry `json:"families"`
}

// problemResponse reports a stored compiled problem: the catalog row it
// became plus the compiled constraint shape.
type problemResponse struct {
	catalog.PolicyInfo
	Family      string `json:"family"`
	Instance    string `json:"instance"`
	Attrs       int    `json:"attrs"`
	Constraints int    `json:"constraints"`
}

func (s *server) handleProblemList(w http.ResponseWriter, _ *http.Request) {
	families := frontend.Families()
	entries := make([]problemFamilyEntry, 0, len(families))
	for _, name := range families {
		fe, ok := frontend.Lookup(name)
		if !ok {
			continue
		}
		entries = append(entries, problemFamilyEntry{Family: name, Describe: fe.Describe()})
	}
	writeJSON(w, http.StatusOK, problemListResponse{Count: len(entries), Families: entries})
}

func (s *server) handleProblemCreate(w http.ResponseWriter, r *http.Request) {
	family := r.PathValue("family")
	fe, ok := frontend.Lookup(family)
	if !ok {
		http.Error(w, "unknown problem family "+family+" (have "+strings.Join(frontend.Families(), ", ")+")",
			http.StatusNotFound)
		return
	}
	ifVersion, ok := s.writeGate(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPolicyBody))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	inst, err := fe.Parse(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c, err := fe.Compile(inst)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	name := inst.InstanceName()
	if n := q.Get("name"); n != "" {
		name = n
	}
	info, status, ok := s.storePolicy(w, r, q, name, c.LatticeText, c.ConstraintText, ifVersion)
	if !ok {
		return
	}
	s.reg.Counter("problems." + family + ".created").Inc()
	writeJSON(w, status, problemResponse{
		PolicyInfo:  info,
		Family:      family,
		Instance:    inst.InstanceName(),
		Attrs:       c.Set.NumAttrs(),
		Constraints: len(c.Set.Constraints()),
	})
}
