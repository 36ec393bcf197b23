package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"minup/internal/lattice"
	"minup/internal/workload"
)

var updateCounts = flag.Bool("update", false, "rewrite testdata/solver_counts.json")

const countsPath = "../../testdata/solver_counts.json"

// countEntry pins one seeded instance's answer and the exact operation
// counts Algorithm 3.1 spent on it. The counts are the units Theorem 5.2
// bounds, so any change to the solver's step order shows up here even when
// the assignment happens to survive it.
type countEntry struct {
	Name          string `json:"name"`
	Inconsistent  bool   `json:"inconsistent,omitempty"`
	Assignment    string `json:"assignment,omitempty"` // space-separated levels
	Tries         int    `json:"tries"`
	FailedTries   int    `json:"failed_tries"`
	TrySteps      int    `json:"try_steps"`
	MinlevelCalls int    `json:"minlevel_calls"`
	DescentSteps  int    `json:"descent_steps"`
	Collapses     int    `json:"collapses"`
}

type countCase struct {
	name string
	lat  lattice.Lattice
	spec workload.ConstraintSpec
	opt  Options
}

// countCases enumerates the seeded fixture instances: chain, MLS,
// powerset and explicit lattices crossed with acyclic, cyclic,
// single-SCC, simple-cycle-collapse and §6 upper-bound shapes.
func countCases(t testing.TB) []countCase {
	sub, err := workload.RandomSublattice(19, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	lats := []struct {
		name string
		lat  lattice.Lattice
	}{
		{"chain6", lattice.MustChain("c6", "L0", "L1", "L2", "L3", "L4", "L5")},
		{"mls", lattice.MustMLS("mls", []string{"U", "S", "TS"}, []string{"a", "b", "c"})},
		{"powerset", lattice.MustPowerset("cats", "w", "x", "y", "z")},
		{"fig1b", lattice.FigureOneB()},
		{"sublattice", sub},
	}
	shapes := []struct {
		name string
		spec workload.ConstraintSpec
		opt  Options
	}{
		{"acyclic-simple", workload.ConstraintSpec{NumAttrs: 16, NumConstraints: 24, MaxLHS: 1, LevelRHSFraction: 0.4}, Options{}},
		{"acyclic-complex", workload.ConstraintSpec{NumAttrs: 16, NumConstraints: 28, MaxLHS: 3, LevelRHSFraction: 0.4}, Options{}},
		{"cyclic", workload.ConstraintSpec{NumAttrs: 20, NumConstraints: 40, MaxLHS: 3, LevelRHSFraction: 0.3, Cyclic: true}, Options{}},
		{"scc", workload.ConstraintSpec{NumAttrs: 24, NumConstraints: 48, MaxLHS: 4, LevelRHSFraction: 0.3, Cyclic: true, SingleSCC: true}, Options{}},
		{"scc-descent", workload.ConstraintSpec{NumAttrs: 24, NumConstraints: 48, MaxLHS: 3, LevelRHSFraction: 0.3, Cyclic: true, SingleSCC: true}, Options{DisableMinComplement: true}},
		{"cyclic-collapse", workload.ConstraintSpec{NumAttrs: 24, NumConstraints: 28, MaxLHS: 1, LevelRHSFraction: 0.2, Cyclic: true}, Options{CollapseSimpleCycles: true}},
		{"upper", workload.ConstraintSpec{NumAttrs: 12, NumConstraints: 18, MaxLHS: 3, LevelRHSFraction: 0.2, Cyclic: true, UpperBoundFraction: 0.2}, Options{}},
	}
	var cases []countCase
	for _, l := range lats {
		for _, sh := range shapes {
			for seed := int64(0); seed < 6; seed++ {
				spec := sh.spec
				spec.Seed = seed
				cases = append(cases, countCase{
					name: fmt.Sprintf("%s/%s/%d", l.name, sh.name, seed),
					lat:  l.lat,
					spec: spec,
					opt:  sh.opt,
				})
			}
		}
	}
	return cases
}

// solveCount solves one fixture case and records its entry. The result is
// nil for an instance whose §6 bounds are inconsistent.
func solveCount(t *testing.T, cc countCase) (countEntry, *Result) {
	t.Helper()
	s := workload.MustConstraints(cc.lat, cc.spec)
	res, err := Solve(s, cc.opt)
	e := countEntry{Name: cc.name}
	if err != nil {
		var ie *InconsistencyError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: %v", cc.name, err)
		}
		e.Inconsistent = true
		return e, nil
	}
	levels := make([]string, len(res.Assignment))
	for i, l := range res.Assignment {
		levels[i] = cc.lat.FormatLevel(l)
	}
	e.Assignment = strings.Join(levels, " ")
	st := res.Stats
	e.Tries, e.FailedTries, e.TrySteps = st.Tries, st.FailedTries, st.TrySteps
	e.MinlevelCalls, e.DescentSteps, e.Collapses = st.MinlevelCalls, st.DescentSteps, st.Collapses
	return e, res
}

// TestSolverCounts replays every fixture instance and requires the exact
// recorded assignment and operation counts, plus a verified, probe-minimal
// answer. Regenerate with `go test ./internal/core -run TestSolverCounts
// -update` only when a change to the algorithm's step order is intended.
func TestSolverCounts(t *testing.T) {
	cases := countCases(t)
	if *updateCounts {
		out := make([]countEntry, len(cases))
		for i, cc := range cases {
			out[i], _ = solveCount(t, cc)
		}
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", " ")
		if err := enc.Encode(out); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countsPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(countsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []countEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("fixture has %d entries, generator %d", len(want), len(cases))
	}
	solved := 0
	for i, cc := range cases {
		got, res := solveCount(t, cc)
		if got != want[i] {
			t.Errorf("%s:\n got %+v\nwant %+v", cc.name, got, want[i])
			continue
		}
		if res == nil {
			continue
		}
		solved++
		s := workload.MustConstraints(cc.lat, cc.spec)
		if err := Verify(s, res.Assignment); err != nil {
			t.Errorf("%s: %v", cc.name, err)
		}
		if min, w, err := ProbeMinimality(s, res.Assignment); err != nil || !min {
			t.Errorf("%s: probe minimal=%v witness=%+v err=%v", cc.name, min, w, err)
		}
	}
	if solved < len(cases)*3/4 {
		t.Fatalf("only %d of %d instances consistent", solved, len(cases))
	}
}
