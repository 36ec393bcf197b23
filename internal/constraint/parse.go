package constraint

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseInto reads constraints in a small line-oriented text format into the
// set. Blank lines and '#' comments are ignored. Each remaining line is
// either an attribute declaration
//
//	attrs name salary rank
//
// or a constraint of one of the forms
//
//	salary >= Secret              simple, level rhs
//	salary >= rank                simple, attribute rhs
//	lub(rank, dept) >= salary     complex (association / inference)
//	Secret >= salary              §6 upper bound (lhs is a level)
//
// Tokens that parse as levels of the set's lattice are levels; all other
// identifiers are attributes and are declared on first use. A token is
// looked up as a declared attribute before it is parsed as a level: AddAttr
// refuses names that parse as levels and the lattice is immutable, so a
// declared name is never a level, and the lookup spares the failed level
// parse (and its error value) on every later use of an attribute.
func (s *Set) ParseInto(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "attrs "); ok {
			for _, name := range strings.Fields(rest) {
				if _, err := s.AddAttr(name); err != nil {
					return fmt.Errorf("line %d: %w", lineno, err)
				}
			}
			continue
		}
		if err := s.parseConstraintLine(line); err != nil {
			return fmt.Errorf("line %d: %w", lineno, err)
		}
	}
	return sc.Err()
}

// ParseString is ParseInto over an in-memory description.
func (s *Set) ParseString(text string) error {
	return s.ParseInto(strings.NewReader(text))
}

func (s *Set) parseConstraintLine(line string) error {
	lhsText, rhsText, ok := strings.Cut(line, ">=")
	if !ok {
		return fmt.Errorf("constraint %q missing '>='", line)
	}
	lhsText = strings.TrimSpace(lhsText)
	rhsText = strings.TrimSpace(rhsText)
	if lhsText == "" || rhsText == "" {
		return fmt.Errorf("constraint %q has an empty side", line)
	}

	rhs, err := s.parseOperand(rhsText)
	if err != nil {
		return err
	}

	// Complex lhs: lub(a, b, ...).
	if inner, found := cutLub(lhsText); found {
		var lhs []Attr
		for _, tok := range strings.Split(inner, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				return fmt.Errorf("constraint %q has an empty lub member", line)
			}
			a, known := s.index[tok]
			if !known {
				if _, err := s.lat.ParseLevel(tok); err == nil {
					return fmt.Errorf("constraint %q: level %q cannot appear inside lub(...) (levels belong on the right-hand side)", line, tok)
				}
				if a, err = s.AddAttr(tok); err != nil {
					return err
				}
			}
			lhs = append(lhs, a)
		}
		return s.Add(lhs, rhs)
	}

	// Simple lhs: a single attribute, or a level (§6 upper bound).
	a, known := s.index[lhsText]
	if !known {
		if lvl, err := s.lat.ParseLevel(lhsText); err == nil {
			if rhs.IsLevel {
				return fmt.Errorf("constraint %q relates two constants", line)
			}
			return s.AddUpper(rhs.Attr, lvl)
		}
		if a, err = s.AddAttr(lhsText); err != nil {
			return err
		}
	}
	return s.Add([]Attr{a}, rhs)
}

// parseOperand interprets a token as a declared attribute, else as a level
// of the lattice if possible, and else as an attribute declared on first
// use.
func (s *Set) parseOperand(tok string) (RHS, error) {
	if a, ok := s.index[tok]; ok {
		return AttrRHS(a), nil
	}
	if lvl, err := s.lat.ParseLevel(tok); err == nil {
		return LevelRHS(lvl), nil
	}
	a, err := s.AddAttr(tok)
	if err != nil {
		return RHS{}, err
	}
	return AttrRHS(a), nil
}

// cutLub strips a "lub( ... )" wrapper, reporting whether one was present.
func cutLub(s string) (inner string, found bool) {
	t := strings.TrimSpace(s)
	if !strings.HasPrefix(t, "lub(") || !strings.HasSuffix(t, ")") {
		return "", false
	}
	return t[len("lub(") : len(t)-1], true
}
