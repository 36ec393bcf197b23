package core

import (
	"context"
	"math"
	"testing"

	"minup/internal/constraint"
	"minup/internal/lattice"
	"minup/internal/workload"
)

// These tests pin the session's reusable scratch state: Try's
// epoch-stamped arrays must give the same answers whatever the session
// solved before, whatever its epoch, and whether or not a sink observes the
// run.

// comparableStats strips the Stats fields that legitimately differ between two
// runs of the same instance.
func comparableStats(st Stats) Stats {
	st.Duration = 0
	st.PoolHit = false
	return st
}

// solveIn runs one solve of c in the given session, as SolveContext would.
func solveIn(t *testing.T, sv *session, c *constraint.Compiled, opt Options) (constraint.Assignment, Stats) {
	t.Helper()
	sv.reset(context.Background(), c, opt)
	if err := sv.solve(); err != nil {
		t.Fatal(err)
	}
	return sv.lambda, comparableStats(sv.stats)
}

func TestSinkDoesNotChangeAnswer(t *testing.T) {
	for _, cc := range countCases(t) {
		s := workload.MustConstraints(cc.lat, cc.spec)
		plain, err := Solve(s, cc.opt)
		if err != nil {
			continue // inconsistent §6 instance, pinned by TestSolverCounts
		}
		opt := cc.opt
		opt.RecordTrace = true
		traced, err := Solve(s, opt)
		if err != nil {
			t.Fatalf("%s: %v", cc.name, err)
		}
		if !traced.Assignment.Equal(plain.Assignment) {
			t.Errorf("%s: traced %s, untraced %s", cc.name,
				s.FormatAssignment(traced.Assignment), s.FormatAssignment(plain.Assignment))
		}
		if comparableStats(traced.Stats) != comparableStats(plain.Stats) {
			t.Errorf("%s: traced stats %+v, untraced %+v", cc.name, traced.Stats, plain.Stats)
		}
	}
}

// sessionSizesSets returns a 128-attribute and a 10-attribute cyclic set.
func sessionSizesSets() (big, small *constraint.Set) {
	lat := lattice.MustChain("c", "U", "C", "S", "TS")
	big = workload.MustConstraints(lat, workload.ConstraintSpec{
		Seed: 3, NumAttrs: 128, NumConstraints: 320, MaxLHS: 3,
		LevelRHSFraction: 0.3, Cyclic: true, SingleSCC: true,
	})
	small = workload.MustConstraints(lat, workload.ConstraintSpec{
		Seed: 4, NumAttrs: 10, NumConstraints: 24, MaxLHS: 3,
		LevelRHSFraction: 0.3, Cyclic: true, SingleSCC: true,
	})
	return big, small
}

func TestEpochWrap(t *testing.T) {
	big, _ := sessionSizesSets()
	type instance struct {
		name string
		set  *constraint.Set
		opt  Options
	}
	insts := []instance{{"big", big, Options{}}}
	for _, cc := range countCases(t) {
		insts = append(insts, instance{cc.name, workload.MustConstraints(cc.lat, cc.spec), cc.opt})
	}
	for _, in := range insts {
		s := in.set
		c := s.Compile()
		want, err := SolveContext(context.Background(), c, in.opt)
		if err != nil || want.Stats.Tries < 2 {
			continue // inconsistent, or too few tries to wrap mid-solve
		}
		// A first solve leaves stamps 1, 2, ... behind; after the wrap
		// the epoch counts through those values again, so they must have
		// been cleared.
		for _, start := range []uint32{math.MaxUint32 - 1, math.MaxUint32} {
			sv := new(session)
			solveIn(t, sv, c, in.opt)
			sv.epoch = start
			got, st := solveIn(t, sv, c, in.opt)
			if sv.epoch == 0 || sv.epoch >= start {
				t.Fatalf("%s: epoch %d did not wrap to a live value", in.name, sv.epoch)
			}
			if !got.Equal(want.Assignment) {
				t.Errorf("%s from %d: after wrap %s, want %s", in.name, start,
					s.FormatAssignment(got), s.FormatAssignment(want.Assignment))
			}
			if st != comparableStats(want.Stats) {
				t.Errorf("%s from %d: after wrap stats %+v, want %+v", in.name, start, st, want.Stats)
			}
		}
	}
}

func TestSessionAcrossSizes(t *testing.T) {
	big, small := sessionSizesSets()
	bc, sc := big.Compile(), small.Compile()
	sv := new(session)
	want, wantSt := solveIn(t, sv, bc, Options{})
	// The assignment belongs to the caller; keep it across reuse.
	want = want.Clone()
	smallWant, err := SolveContext(context.Background(), sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := solveIn(t, sv, sc, Options{}); !got.Equal(smallWant.Assignment) {
		t.Errorf("small after big: %s, want %s", small.FormatAssignment(got), small.FormatAssignment(smallWant.Assignment))
	}
	got, st := solveIn(t, sv, bc, Options{})
	if !got.Equal(want) {
		t.Errorf("big after small: %s, want %s", big.FormatAssignment(got), big.FormatAssignment(want))
	}
	if st != comparableStats(wantSt) {
		t.Errorf("big after small: stats %+v, want %+v", st, wantSt)
	}
}
