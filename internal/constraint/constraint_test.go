package constraint

import (
	"reflect"
	"strings"
	"testing"

	"minup/internal/lattice"
)

func chain4(t *testing.T) *lattice.Chain {
	t.Helper()
	return lattice.MustChain("mil", "U", "C", "S", "TS")
}

func lv(t *testing.T, l lattice.Lattice, name string) lattice.Level {
	t.Helper()
	x, err := l.ParseLevel(name)
	if err != nil {
		t.Fatalf("ParseLevel(%s): %v", name, err)
	}
	return x
}

func TestAddAttr(t *testing.T) {
	s := NewSet(chain4(t))
	a, err := s.AddAttr("name")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.AddAttr("name")
	if err != nil || a != b {
		t.Errorf("re-declaration: %v %v %v", a, b, err)
	}
	if s.NumAttrs() != 1 {
		t.Errorf("NumAttrs = %d", s.NumAttrs())
	}
	if got := s.AttrName(a); got != "name" {
		t.Errorf("AttrName = %q", got)
	}
	for _, bad := range []string{"", "a b", "x(y)", "S" /* level name */} {
		if _, err := s.AddAttr(bad); err == nil {
			t.Errorf("AddAttr(%q) accepted", bad)
		}
	}
}

func TestAddValidation(t *testing.T) {
	s := NewSet(chain4(t))
	a := s.MustAttr("a")
	b := s.MustAttr("b")
	if err := s.Add(nil, AttrRHS(b)); err == nil {
		t.Error("empty lhs accepted")
	}
	if err := s.Add([]Attr{a, b}, AttrRHS(b)); err == nil {
		t.Error("rhs on lhs accepted")
	}
	added, err := s.AddIgnoreTrivial([]Attr{a, b}, AttrRHS(b))
	if added || err != nil {
		t.Errorf("AddIgnoreTrivial trivial case: %v %v", added, err)
	}
	added, err = s.AddIgnoreTrivial([]Attr{a}, AttrRHS(b))
	if !added || err != nil {
		t.Errorf("AddIgnoreTrivial real case: %v %v", added, err)
	}
	// Duplicate lhs members collapse.
	s.MustAdd([]Attr{a, a, b}, LevelRHS(s.Lattice().Top()))
	last := s.Constraints()[len(s.Constraints())-1]
	if len(last.LHS) != 2 {
		t.Errorf("lhs not deduped: %v", last.LHS)
	}
}

func TestTotalSize(t *testing.T) {
	s := NewSet(chain4(t))
	a, b, c := s.MustAttr("a"), s.MustAttr("b"), s.MustAttr("c")
	s.MustAdd([]Attr{a}, AttrRHS(b))                        // size 2
	s.MustAdd([]Attr{a, b, c}, LevelRHS(s.Lattice().Top())) // size 4
	if got := s.TotalSize(); got != 2+4 {
		t.Errorf("TotalSize = %d, want 6", got)
	}
}

func TestSatisfiesAndViolations(t *testing.T) {
	l := chain4(t)
	s := NewSet(l)
	a, b := s.MustAttr("a"), s.MustAttr("b")
	s.MustAdd([]Attr{a}, LevelRHS(lv(t, l, "S")))
	s.MustAdd([]Attr{a, b}, LevelRHS(lv(t, l, "TS")))
	s.MustAdd([]Attr{b}, AttrRHS(a))
	s.MustAddUpper(b, lv(t, l, "TS"))

	good := Assignment{lv(t, l, "S"), lv(t, l, "TS")}
	if !s.Satisfies(good) {
		t.Fatalf("good assignment rejected: %v", s.Violations(good))
	}
	bad := Assignment{lv(t, l, "C"), lv(t, l, "U")}
	v := s.Violations(bad)
	if len(v) != 3 {
		t.Errorf("violations = %v, want 3", v)
	}
	short := Assignment{lv(t, l, "S")}
	if s.Satisfies(short) {
		t.Error("short assignment accepted")
	}

	// Upper-bound violation alone.
	s2 := NewSet(l)
	x := s2.MustAttr("x")
	s2.MustAddUpper(x, lv(t, l, "C"))
	if s2.Satisfies(Assignment{lv(t, l, "TS")}) {
		t.Error("upper bound not enforced")
	}
	if !s2.Satisfies(Assignment{lv(t, l, "U")}) {
		t.Error("assignment below upper bound rejected")
	}
}

func TestAssignmentOps(t *testing.T) {
	l := chain4(t)
	m := Assignment{lv(t, l, "S"), lv(t, l, "C")}
	o := Assignment{lv(t, l, "C"), lv(t, l, "C")}
	if !m.Dominates(l, o) || o.Dominates(l, m) {
		t.Error("pointwise dominance wrong")
	}
	if !m.Equal(m.Clone()) || m.Equal(o) {
		t.Error("Equal wrong")
	}
	if m.Dominates(l, Assignment{lv(t, l, "U")}) {
		t.Error("length mismatch must not dominate")
	}
}

func TestGraphAndPriorities(t *testing.T) {
	l := chain4(t)
	s := NewSet(l)
	a, b, c, d := s.MustAttr("a"), s.MustAttr("b"), s.MustAttr("c"), s.MustAttr("d")
	s.MustAdd([]Attr{a}, AttrRHS(b))
	s.MustAdd([]Attr{b}, AttrRHS(a)) // cycle a<->b
	s.MustAdd([]Attr{c, d}, AttrRHS(a))
	s.MustAdd([]Attr{d}, LevelRHS(l.Top()))

	if s.Acyclic() {
		t.Error("cyclic set reported acyclic")
	}
	pr := s.Priorities()
	if pr.Priority[a] != pr.Priority[b] {
		t.Error("a and b must share a priority")
	}
	if pr.Priority[c] >= pr.Priority[a] || pr.Priority[d] >= pr.Priority[a] {
		t.Error("c,d reach a, so must have lower priority")
	}

	on := s.ConstraintsOn()
	if !reflect.DeepEqual(on[d], []int{2, 3}) {
		t.Errorf("ConstraintsOn[d] = %v", on[d])
	}
	into := s.ConstraintsInto()
	if !reflect.DeepEqual(into[a], []int{1, 2}) {
		t.Errorf("ConstraintsInto[a] = %v", into[a])
	}

	s2 := NewSet(l)
	x, y := s2.MustAttr("x"), s2.MustAttr("y")
	s2.MustAdd([]Attr{x}, AttrRHS(y))
	if !s2.Acyclic() {
		t.Error("acyclic set reported cyclic")
	}
}

func TestParse(t *testing.T) {
	l := chain4(t)
	s := NewSet(l)
	err := s.ParseString(`
# payroll policy
attrs name salary
salary >= S
lub(name, salary) >= TS
salary >= rank
TS >= rank
`)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumAttrs() != 3 {
		t.Errorf("attrs = %d, want 3 (rank auto-declared)", s.NumAttrs())
	}
	if len(s.Constraints()) != 3 || len(s.UpperBounds()) != 1 {
		t.Errorf("parsed %d constraints, %d uppers", len(s.Constraints()), len(s.UpperBounds()))
	}
	c := s.Constraints()[1]
	if len(c.LHS) != 2 || !c.RHS.IsLevel || c.RHS.Level != l.Top() {
		t.Errorf("complex constraint parsed wrong: %+v", c)
	}

	// Round-trip through Format.
	for _, c := range s.Constraints() {
		text := s.Format(c)
		s2 := NewSet(l)
		if err := s2.ParseString(text); err != nil {
			t.Errorf("Format produced unparsable %q: %v", text, err)
		}
	}

	for _, bad := range []string{
		"a >",
		"a >= ",
		">= a",
		"S >= TS",         // two constants
		"lub(S, a) >= TS", // level inside lub
		"lub(, a) >= TS",
		"lub(a, b) >= b", // trivially satisfied: rejected
		"a b >= S",       // bad attr name
	} {
		s3 := NewSet(l)
		if err := s3.ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) accepted", bad)
		}
	}
}

func TestParseMLSLevels(t *testing.T) {
	m := lattice.FigureOneA()
	s := NewSet(m)
	err := s.ParseString(`
mission >= <TS,{Army}>
lub(mission, roster) >= <TS,{Army,Nuclear}>
<TS,{Army}> >= roster
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Constraints()) != 2 || len(s.UpperBounds()) != 1 {
		t.Fatalf("parsed %d constraints %d uppers", len(s.Constraints()), len(s.UpperBounds()))
	}
	if s.Constraints()[0].RHS.Level != m.MustLevel("TS", "Army") {
		t.Error("MLS level literal parsed wrong")
	}
}

func TestFigure2Fixture(t *testing.T) {
	f := NewFigure2()
	s := f.Set
	if s.NumAttrs() != 11 {
		t.Fatalf("attrs = %d", s.NumAttrs())
	}
	if len(s.Constraints()) != 17 {
		t.Fatalf("constraints = %d, want 17", len(s.Constraints()))
	}
	if s.Acyclic() {
		t.Error("figure 2 set must be cyclic")
	}
	// The paper's final classification satisfies the set.
	if !s.Satisfies(f.Want) {
		t.Fatalf("paper's final classification violates: %v", s.Violations(f.Want))
	}
	// Priority partition: {P}, {D}, {I,O,N}, {B,C,E,F,G,M}.
	pr := s.Priorities()
	if pr.Max != 4 {
		t.Errorf("priorities = %d, want 4", pr.Max)
	}
	same := func(a, b Attr) bool { return pr.Priority[a] == pr.Priority[b] }
	if !same(f.I, f.O) || !same(f.O, f.N) {
		t.Error("I,O,N must share a priority")
	}
	big := []Attr{f.B, f.C, f.E, f.F, f.G, f.M}
	for _, a := range big[1:] {
		if !same(big[0], a) {
			t.Errorf("%s not in the big SCC priority", s.AttrName(a))
		}
	}
	if same(f.P, f.D) || same(f.P, f.B) || same(f.D, f.B) || same(f.I, f.B) {
		t.Error("distinct components merged")
	}
	// Dependency order: D before (lower priority than) the big SCC, which
	// is above {I,O,N}.
	if !(pr.Priority[f.D] < pr.Priority[f.C]) || !(pr.Priority[f.I] < pr.Priority[f.B]) {
		t.Errorf("priority order wrong: D=%d C=%d I=%d B=%d",
			pr.Priority[f.D], pr.Priority[f.C], pr.Priority[f.I], pr.Priority[f.B])
	}
	// Lattice structure sanity for the trace.
	if s.LubLHS(f.Want, []Attr{f.E, f.F}) != f.Want[f.F] {
		t.Error("lub{E,F} should equal λ(F)=L4 in the final assignment")
	}
}

func TestFormatAssignment(t *testing.T) {
	l := chain4(t)
	s := NewSet(l)
	s.MustAttr("b")
	s.MustAttr("a")
	m := Assignment{lv(t, l, "S"), lv(t, l, "U")}
	if got := s.FormatAssignment(m); got != "a=U b=S" {
		t.Errorf("FormatAssignment = %q", got)
	}
}

func TestParseIntoReader(t *testing.T) {
	l := chain4(t)
	s := NewSet(l)
	if err := s.ParseInto(strings.NewReader("a >= S\n")); err != nil {
		t.Fatal(err)
	}
	if len(s.Constraints()) != 1 {
		t.Fatal("reader parse failed")
	}
}

// TestParseLevelErrorsUnchanged pins the messages of the two level/attribute
// collisions the parser reports, for tokens that are and are not already
// declared attributes: the parser looks a token up as an attribute before
// it tries to parse it as a level, and that order must not show.
func TestParseLevelErrorsUnchanged(t *testing.T) {
	l := chain4(t)
	for _, tc := range []struct{ text, want string }{
		{"lub(S, a) >= TS", `line 1: constraint "lub(S, a) >= TS": level "S" cannot appear inside lub(...) (levels belong on the right-hand side)`},
		{"a >= S\nlub(a, S) >= TS", `line 2: constraint "lub(a, S) >= TS": level "S" cannot appear inside lub(...) (levels belong on the right-hand side)`},
		{"attrs a S", `line 1: constraint: attribute name "S" collides with a level of lattice "mil"`},
		{"a >= b\nlub(a, b) >= TS\nS >= TS", `line 3: constraint "S >= TS" relates two constants`},
	} {
		s := NewSet(l)
		err := s.ParseString(tc.text)
		if err == nil || err.Error() != tc.want {
			t.Errorf("ParseString(%q) = %v, want %s", tc.text, err, tc.want)
		}
	}
	s := NewSet(l)
	if _, err := s.AddAttr("TS"); err == nil || err.Error() != `constraint: attribute name "TS" collides with a level of lattice "mil"` {
		t.Errorf("AddAttr(TS) = %v", err)
	}
	// Declared attributes still resolve as attributes on every side.
	if err := s.ParseString("a >= b\nlub(a, b) >= TS\nb >= a\nU >= a"); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Constraints()); got != 3 || s.NumAttrs() != 2 || len(s.UpperBounds()) != 1 {
		t.Errorf("parsed %d constraints over %d attrs, %d upper bounds", got, s.NumAttrs(), len(s.UpperBounds()))
	}
}
