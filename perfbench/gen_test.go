package main

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

// digest serializes generated operations so equality means byte-identical.
func digest(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"preload": func(seed int64) any {
			fi, err := preload(seed, 7)
			if err != nil {
				t.Fatal(err)
			}
			return fi
		},
		"zipf": func(seed int64) any { return zipfReads(seed, 1, 500) },
		"churn": func(seed int64) any {
			ops, err := churnOps(seed, 1, 80)
			if err != nil {
				t.Fatal(err)
			}
			return ops
		},
		"classify": func(seed int64) any {
			ops, err := classifyOps(seed, 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			return ops
		},
	}
	for name, gen := range gens {
		a, b, c := digest(t, gen(42)), digest(t, gen(42)), digest(t, gen(43))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different operations", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: a different seed gave identical operations", name)
		}
	}
}

func TestChurnShape(t *testing.T) {
	ops, err := churnOps(5, 0, 320)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[opKind]int{}
	for i, op := range ops {
		kinds[op.Kind]++
		if (op.Kind == opProblem) != ((i+1)%problemEvery == 0) {
			t.Fatalf("op %d is %s; problems belong exactly in every %dth slot", i, op.Kind, problemEvery)
		}
		if op.Kind != opDelete && len(op.Body) == 0 {
			t.Fatalf("op %d (%s) has no request body", i, op.Kind)
		}
		if op.Read < 0 || int(op.Read) >= preloadPolicies {
			t.Fatalf("op %d reads preloaded policy %d", i, op.Read)
		}
	}
	if kinds[opProblem] != 320/problemEvery || kinds[opPut] == 0 || kinds[opAppend] == 0 {
		t.Fatalf("op mix %v", kinds)
	}
	fam := map[string]int{}
	for _, op := range ops {
		if op.Kind == opProblem {
			fam[op.Family]++
		}
	}
	if fam["suppress"] != fam["depinf"] {
		t.Fatalf("problem families do not alternate: %v", fam)
	}
}

func TestClientNamesDisjoint(t *testing.T) {
	owner := map[string]string{}
	claim := func(name, who string) {
		if prev, ok := owner[name]; ok && prev != who {
			t.Fatalf("name %s used by %s and %s", name, prev, who)
		}
		owner[name] = who
	}
	for i := 0; i < preloadPolicies; i++ {
		claim(preloadName(i), "preload")
	}
	for c := 0; c < clients; c++ {
		who := "client" + string(rune('0'+c))
		ops, err := churnOps(9, c, 400)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			claim(op.Name, who)
		}
		cls, err := classifyOps(9, c, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range cls {
			claim(op.Name, who)
		}
	}
	for a := 0; a < clients; a++ {
		for b := 0; b < clients; b++ {
			if a != b && strings.HasPrefix(churnPrefix(a), churnPrefix(b)) {
				t.Fatalf("prefix %q extends %q", churnPrefix(a), churnPrefix(b))
			}
		}
	}
}

func TestClassifyInstancesNeverRepeat(t *testing.T) {
	seen := map[string]bool{}
	for c := 0; c < clients; c++ {
		ops, err := classifyOps(3, c, 20)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if seen[string(op.Body)] {
				t.Fatalf("instance %s repeats an earlier one", op.Name)
			}
			seen[string(op.Body)] = true
		}
	}
}
