package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"minup/internal/frontend"
	_ "minup/internal/frontend/depinf"   // registers the "depinf" problem family
	_ "minup/internal/frontend/suppress" // registers the "suppress" problem family
	"minup/internal/lattice"
	"minup/internal/workload"
)

// Workload shape. These are the benchmark's definition, not tunables: a
// change to any of them is a change of benchmark.
const (
	clients = 2 // closed-loop callers, one keep-alive connection each

	preloadPolicies = 2000 // paper-family policies in the hot-read/churn catalog
	paperSize       = 6    // 36 attributes, 108 constraints, 4-level chain
	zipfS           = 1.1  // skew of the preloaded-policy read distribution

	churnPolicies    = 64 // name pool of each client's mutation stream
	problemEvery     = 16 // every 16th churn operation is a problem POST
	problemSize      = 3  // internal/load's problem size: a 3×4 cell grid, a depth-3 dependency chain
	classifyAttrs    = 128
	classifyCons     = 256
	classifyLattice  = "mls m\nlevels U C S TS\ncategories a b c d e f\n"
	classifyProbeOne = 32 // every 32nd classify answer is also probed for minimality
)

// seedFor derives an independent RNG seed for one (purpose, index) pair
// of a run seed, so adding a draw to one generator never shifts another's.
func seedFor(seed int64, purpose string, i int) int64 {
	h := uint64(14695981039346656037)
	for _, b := range []byte(fmt.Sprintf("%d/%s/%d", seed, purpose, i)) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int64(h >> 1)
}

// preloadName is the catalog name of preloaded policy i.
func preloadName(i int) string { return fmt.Sprintf("h%04d", i) }

// preload returns preloaded policy i: the paper family at size 6.
func preload(seed int64, i int) (workload.FamilyInstance, error) {
	return workload.GenerateFamily("paper", seed+int64(i), paperSize)
}

// zipfReads draws n preloaded-policy indices with Zipf(1.1) skew for one
// client.
func zipfReads(seed int64, client, n int) []int32 {
	rng := rand.New(rand.NewSource(seedFor(seed, "zipf", client)))
	z := rand.NewZipf(rng, zipfS, 1, preloadPolicies-1)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

type opKind uint8

const (
	opPut opKind = iota
	opAppend
	opDelete
	opProblem
)

func (k opKind) String() string {
	return [...]string{"put", "append", "delete", "problem"}[k]
}

// churnOp is one policy-churn operation: a mutation (or problem POST)
// followed by a read of a Zipf-drawn preloaded policy.
type churnOp struct {
	Kind opKind
	Name string
	// Lattice and Constraints are the put text; Constraints alone the
	// append text.
	Lattice, Constraints string
	// Family is the problem family (Kind == opProblem).
	Family string
	// Body is the request body, pre-encoded (empty for deletes).
	Body []byte
	// Read is the preloaded policy read after the mutation.
	Read int32
}

// churnPrefix is client c's policy-name prefix; problemName its problem
// names. Both are disjoint across clients and from preloadName.
func churnPrefix(c int) string     { return fmt.Sprintf("c%dp", c) }
func problemName(c, k int) string  { return fmt.Sprintf("c%dx%05d", c, k) }
func classifyName(c, k int) string { return fmt.Sprintf("k%dn%05d", c, k) }
func churnSpec(seed int64, c, n int) workload.MutationSpec {
	return workload.MutationSpec{
		Seed:             seedFor(seed, "churn", c),
		NumPolicies:      churnPolicies,
		NamePrefix:       churnPrefix(c),
		NumMutations:     n,
		PutFraction:      0.2,
		DeleteFraction:   0.02,
		AttrsPerPolicy:   36,
		ConsPerPut:       108,
		ConsPerAppend:    3,
		LevelRHSFraction: 0.35,
		NewAttrFraction:  0.05,
	}
}

// churnOps generates client c's n-operation churn sequence: its own
// MutationStream with every problemEvery-th slot taken by a problem POST,
// alternating suppress and depinf. The stream itself is never cut, so
// every mutation stays valid against the state its predecessors built.
func churnOps(seed int64, c, n int) ([]churnOp, error) {
	problems := n / problemEvery
	muts, err := workload.MutationStream(churnSpec(seed, c, n-problems))
	if err != nil {
		return nil, err
	}
	reads := zipfReads(seedFor(seed, "churn-reads", c), c, n)
	out := make([]churnOp, 0, n)
	k := 0
	for i := 0; i < n; i++ {
		var op churnOp
		if (i+1)%problemEvery == 0 {
			family := "suppress"
			if k%2 == 1 {
				family = "depinf"
			}
			fe, ok := frontend.Lookup(family)
			if !ok {
				return nil, fmt.Errorf("problem family %q not registered", family)
			}
			inst, err := fe.Generate(seedFor(seed, "problem/"+family, c*1_000_000+k), problemSize)
			if err != nil {
				return nil, err
			}
			body, err := frontend.Marshal(inst)
			if err != nil {
				return nil, err
			}
			op = churnOp{Kind: opProblem, Name: problemName(c, k), Family: family, Body: body}
			k++
		} else {
			m := muts[0]
			muts = muts[1:]
			op = churnOp{Name: m.Name, Lattice: m.Lattice, Constraints: m.Constraints}
			switch m.Op {
			case workload.OpPut:
				op.Kind = opPut
				op.Body, err = json.Marshal(policyBody{Lattice: m.Lattice, Constraints: m.Constraints})
			case workload.OpAppend:
				op.Kind = opAppend
				op.Body, err = json.Marshal(policyBody{Constraints: m.Constraints})
			case workload.OpDelete:
				op.Kind = opDelete
			}
			if err != nil {
				return nil, err
			}
		}
		op.Read = reads[i]
		out = append(out, op)
	}
	return out, nil
}

// classifyOp is one classify operation: a never-repeated instance PUT with
// ?wait=1, a GET of its solve, and a DELETE.
type classifyOp struct {
	Name string
	Body []byte // {"lattice": ..., "constraints": ...}
}

// classifyOps generates client c's n classify instances over the
// 256-element compartmented lattice (4 levels × 2^6 category sets), on
// GOMAXPROCS goroutines; instance i depends only on (seed, c, i).
func classifyOps(seed int64, c, n int) ([]classifyOp, error) {
	lat, err := lattice.ParseString(classifyLattice)
	if err != nil {
		return nil, err
	}
	out := make([]classifyOp, n)
	err = parallel(n, func(i int) error {
		set, err := workload.Constraints(lat, workload.ConstraintSpec{
			Seed:             seedFor(seed, "classify", c*1_000_000+i),
			NumAttrs:         classifyAttrs,
			NumConstraints:   classifyCons,
			MaxLHS:           3,
			LevelRHSFraction: 0.1,
			Cyclic:           true,
			SingleSCC:        true,
		})
		if err != nil {
			return err
		}
		var text strings.Builder
		if _, err := set.WriteTo(&text); err != nil {
			return err
		}
		body, err := json.Marshal(policyBody{Lattice: classifyLattice, Constraints: text.String()})
		out[i] = classifyOp{Name: classifyName(c, i), Body: body}
		return err
	})
	return out, err
}

// policyBody is the JSON body of PUT /policies/{name}.
type policyBody struct {
	Lattice     string `json:"lattice,omitempty"`
	Constraints string `json:"constraints"`
}
