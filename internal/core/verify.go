package core

import (
	"context"
	"fmt"

	"minup/internal/constraint"
	"minup/internal/lattice"
)

// This file provides verification and explanation tools layered on the
// solver's Try machinery:
//
//   - ProbeMinimality checks an arbitrary solution for pointwise
//     minimality by attempting, for every attribute, every one-cover
//     lowering together with the forward propagation it induces — the
//     exact criterion the paper's minimality proof (Theorem 5.1) is built
//     on, usable on instances far beyond the reach of the exhaustive
//     oracle.
//   - Explain reports, for one attribute of a solved instance, which
//     constraints pin it at its level: for each immediate descendant of
//     its level, the constraint that breaks when the attribute is lowered
//     there (with propagation).
//
// Both run in pooled sessions against a compiled snapshot; the Context
// variants poll for cancellation between probes.

// Verify checks that an assignment satisfies every constraint of the set,
// returning nil on success and an error naming the violations otherwise.
// It is the cheap (one pass over the constraints) guard the serving layer
// runs before returning any assignment it did not obtain from the minimal
// solver — in particular the Qian-baseline answers served under overload
// degradation, which are over-classified by construction but must still be
// constraint-clean.
func Verify(s *constraint.Set, m constraint.Assignment) error {
	if len(m) != s.NumAttrs() {
		return fmt.Errorf("core: assignment has %d levels for %d attributes", len(m), s.NumAttrs())
	}
	if v := s.Violations(m); v != nil {
		return fmt.Errorf("core: assignment violates %d constraint(s), first: %s", len(v), v[0])
	}
	return nil
}

// Witness is a strictly lower satisfying assignment found by
// ProbeMinimality, as evidence of non-minimality.
type Witness struct {
	// Attr is the attribute whose lowering initiated the witness.
	Attr constraint.Attr
	// To is the level Attr was lowered to.
	To lattice.Level
	// Assignment is the full strictly-lower satisfying assignment.
	Assignment constraint.Assignment
}

// ProbeMinimality reports whether the assignment is pointwise minimal for
// the constraint set, in the sense that no single-attribute lowering —
// together with the transitive lowerings it forces on other attributes —
// yields a satisfying assignment strictly below m. This is the fixpoint
// condition Algorithm 3.1 terminates on; for solutions produced by the
// solver it holds by construction, and for foreign assignments it is a
// strong (and, on lattices, exact for propagation-reachable witnesses)
// minimality check that runs in polynomial time.
//
// The assignment must satisfy the constraint set; otherwise an error is
// returned.
func ProbeMinimality(s *constraint.Set, m constraint.Assignment) (minimal bool, w *Witness, err error) {
	return ProbeMinimalityContext(context.Background(), s.Snapshot(), m)
}

// ProbeMinimalityContext is ProbeMinimality against a compiled snapshot,
// with periodic cancellation checks.
func ProbeMinimalityContext(ctx context.Context, c *constraint.Compiled, m constraint.Assignment) (minimal bool, w *Witness, err error) {
	if c == nil {
		return false, nil, ErrNotCompiled
	}
	s := c.Set()
	if v := s.Violations(m); v != nil {
		return false, nil, fmt.Errorf("core: assignment does not satisfy the constraints: %s", v[0])
	}
	sv := acquireProbe(ctx, c, m)
	defer sv.release()
	for _, a := range s.Attrs() {
		for _, cand := range sv.lat.Covers(m[a]) {
			lower, ok, err := sv.try(a, cand)
			if err != nil {
				return false, nil, err
			}
			if !ok {
				continue
			}
			witness := m.Clone()
			for _, lw := range lower {
				witness[lw.attr] = lw.level
			}
			if viol := s.Violations(witness); viol != nil {
				return false, nil, fmt.Errorf("core: internal error: probe produced a non-solution (%s)", viol[0])
			}
			return false, &Witness{Attr: a, To: cand, Assignment: witness}, nil
		}
	}
	return true, nil, nil
}

// acquireProbe builds a session positioned at an arbitrary assignment with
// every attribute un-done, so Try propagates lowerings freely and fails
// only against level constants.
func acquireProbe(ctx context.Context, c *constraint.Compiled, m constraint.Assignment) *session {
	sv := acquireSession(ctx, c, Options{})
	sv.lambda = m.Clone()
	return sv
}

// Binding describes why an attribute cannot be lowered to one immediate
// descendant of its level.
type Binding struct {
	// To is the rejected lower level.
	To lattice.Level
	// Constraint is the index (into Set.Constraints()) of the constraint
	// whose violation rejects the lowering, or -1 when an upper bound or
	// the propagation budget rejected it.
	Constraint int
	// Text is the human-readable form of the rejecting constraint.
	Text string
}

// Explanation reports why one attribute of a solved instance sits at its
// level.
type Explanation struct {
	Attr  constraint.Attr
	Level lattice.Level
	// Bindings has one entry per immediate descendant of Level, naming a
	// constraint that breaks if the attribute is lowered there (with
	// propagation). Empty means Level is the lattice bottom.
	Bindings []Binding
}

// Explain reports, for each immediate descendant of m[attr], one
// constraint that pins the attribute above it. The assignment must be a
// minimal solution (as produced by Solve); on non-minimal assignments some
// descendants may have no binding constraint, which is reported as an
// error identifying the lowerable direction.
func Explain(s *constraint.Set, m constraint.Assignment, attr constraint.Attr) (*Explanation, error) {
	return ExplainContext(context.Background(), s.Snapshot(), m, attr)
}

// ExplainContext is Explain against a compiled snapshot.
func ExplainContext(ctx context.Context, c *constraint.Compiled, m constraint.Assignment, attr constraint.Attr) (*Explanation, error) {
	if c == nil {
		return nil, ErrNotCompiled
	}
	s := c.Set()
	if v := s.Violations(m); v != nil {
		return nil, fmt.Errorf("core: assignment does not satisfy the constraints: %s", v[0])
	}
	sv := acquireProbe(ctx, c, m)
	defer sv.release()
	ex := &Explanation{Attr: attr, Level: m[attr]}
	for _, cand := range sv.lat.Covers(m[attr]) {
		_, ok, err := sv.try(attr, cand)
		if err != nil {
			return nil, err
		}
		if ok {
			return nil, fmt.Errorf("core: %s can be lowered to %s — assignment is not minimal",
				s.AttrName(attr), sv.lat.FormatLevel(cand))
		}
		ci := sv.lastFailure
		b := Binding{To: cand, Constraint: ci}
		if ci >= 0 {
			b.Text = s.Format(s.Constraints()[ci])
		}
		ex.Bindings = append(ex.Bindings, b)
	}
	return ex, nil
}

// FormatExplanation renders an explanation for humans.
func FormatExplanation(s *constraint.Set, ex *Explanation) string {
	lat := s.Lattice()
	out := fmt.Sprintf("%s = %s", s.AttrName(ex.Attr), lat.FormatLevel(ex.Level))
	if len(ex.Bindings) == 0 {
		return out + " (lattice bottom; no lower level exists)"
	}
	for _, b := range ex.Bindings {
		out += fmt.Sprintf("\n  cannot lower to %s: would violate %s",
			lat.FormatLevel(b.To), b.Text)
	}
	return out
}
