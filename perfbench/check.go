package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/frontend"
	"minup/internal/lattice"
	"minup/internal/workload"
)

// checks tallies the answer checks, which all run outside the timed
// phase. Every wrong answer counts as a failed request.
type checks struct {
	checked int
	wrong   int
	notes   []string
}

func (k *checks) fail(format string, args ...any) {
	k.wrong++
	if len(k.notes) < 8 {
		k.notes = append(k.notes, fmt.Sprintf(format, args...))
	}
}

type solveAnswer struct {
	Name       string            `json:"name"`
	Version    uint64            `json:"version"`
	Assignment map[string]string `json:"assignment"`
}

// parsePolicy parses policy texts exactly as the catalog does.
func parsePolicy(latText, consText string) (*constraint.Set, error) {
	lat, err := lattice.ParseString(latText)
	if err != nil {
		return nil, err
	}
	set := constraint.NewSet(lat)
	if err := set.ParseString(consText); err != nil {
		return nil, err
	}
	return set, nil
}

// assignmentOf maps an answer's attribute → level names back onto set.
func assignmentOf(set *constraint.Set, ans map[string]string) (constraint.Assignment, error) {
	if len(ans) != set.NumAttrs() {
		return nil, fmt.Errorf("answer has %d attributes, policy has %d", len(ans), set.NumAttrs())
	}
	m := make(constraint.Assignment, set.NumAttrs())
	for _, a := range set.Attrs() {
		name := set.AttrName(a)
		text, ok := ans[name]
		if !ok {
			return nil, fmt.Errorf("answer lacks attribute %q", name)
		}
		l, err := set.Lattice().ParseLevel(text)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: %w", name, err)
		}
		m[a] = l
	}
	return m, nil
}

// checkPreloadedReads compares every distinct preloaded-policy answer a
// client saw with an in-process reference solve of the same texts.
func checkPreloadedReads(k *checks, pols []workload.FamilyInstance, sts []*clientState) {
	ref := make(map[int32]map[string]string)
	var keys []answerKey
	bodies := make(map[answerKey][]byte)
	for _, st := range sts {
		for key, body := range st.reads {
			if _, dup := bodies[key]; !dup {
				keys = append(keys, key)
				bodies[key] = body
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].idx < keys[j].idx })
	for _, key := range keys {
		k.checked++
		want, ok := ref[key.idx]
		if !ok {
			inst := pols[key.idx]
			set, err := parsePolicy(inst.Lattice, inst.Constraints)
			if err != nil {
				k.fail("parsing %s: %v", preloadName(int(key.idx)), err)
				continue
			}
			res, err := core.Solve(set, core.Options{})
			if err != nil {
				k.fail("reference solve of %s: %v", preloadName(int(key.idx)), err)
				continue
			}
			want = make(map[string]string, set.NumAttrs())
			for _, a := range set.Attrs() {
				want[set.AttrName(a)] = set.Lattice().FormatLevel(res.Assignment[a])
			}
			ref[key.idx] = want
		}
		var got solveAnswer
		if err := json.Unmarshal(bodies[key], &got); err != nil {
			k.fail("%s: undecodable answer: %v", preloadName(int(key.idx)), err)
			continue
		}
		if got.Name != preloadName(int(key.idx)) || !equalMaps(got.Assignment, want) {
			k.fail("%s: answer differs from the reference solve", preloadName(int(key.idx)))
		}
	}
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// checkFresh requires every churn fresh answer to carry the acked version.
func checkFresh(k *checks, sts []*clientState) {
	for ci, st := range sts {
		for _, p := range st.fresh {
			k.checked++
			if p.acked == "" || p.acked != p.got {
				k.fail("client %d: fresh answer version %s, mutation acked %s", ci, p.got, p.acked)
			}
		}
	}
}

// checkClassify requires every classify answer to satisfy its instance
// (core.Verify) and every classifyProbeOne-th to be minimal as well
// (core.ProbeMinimality).
func checkClassify(k *checks, ops [][]classifyOp, sts []*clientState) (probed int) {
	for ci, st := range sts {
		for j, ans := range st.classify {
			k.checked++
			op := ops[ci][ans.op]
			var body policyBody
			if err := json.Unmarshal(op.Body, &body); err != nil {
				k.fail("%s: decoding request: %v", op.Name, err)
				continue
			}
			set, err := parsePolicy(body.Lattice, body.Constraints)
			if err != nil {
				k.fail("%s: parsing: %v", op.Name, err)
				continue
			}
			var got solveAnswer
			if err := json.Unmarshal(ans.body, &got); err != nil {
				k.fail("%s: undecodable answer: %v", op.Name, err)
				continue
			}
			m, err := assignmentOf(set, got.Assignment)
			if err == nil {
				err = core.Verify(set, m)
			}
			if err != nil {
				k.fail("%s: %v", op.Name, err)
				continue
			}
			if j%classifyProbeOne == 0 {
				probed++
				minimal, w, err := core.ProbeMinimality(set, m)
				if err != nil || !minimal {
					k.fail("%s: not minimal (witness %v, err %v)", op.Name, w, err)
				}
			}
		}
	}
	return probed
}

// livePolicy is a policy a churn client believes exists, with the
// constraint set the client rebuilt from its own acked mutations.
type livePolicy struct {
	set     *constraint.Set
	version string
}

// replayChurn rebuilds a client's live policies from its acked mutations.
func replayChurn(ops []churnOp, st *clientState) (map[string]*livePolicy, error) {
	live := make(map[string]*livePolicy)
	for _, i := range st.acked {
		op := ops[i]
		switch op.Kind {
		case opPut:
			set, err := parsePolicy(op.Lattice, op.Constraints)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", op.Name, err)
			}
			live[op.Name] = &livePolicy{set: set}
		case opAppend:
			p, ok := live[op.Name]
			if !ok {
				return nil, fmt.Errorf("append to %s, which the client never created", op.Name)
			}
			if err := p.set.ParseString(op.Constraints); err != nil {
				return nil, fmt.Errorf("%s: %w", op.Name, err)
			}
		case opDelete:
			delete(live, op.Name)
		case opProblem:
			fe, _ := frontend.Lookup(op.Family)
			inst, err := fe.Parse(op.Body)
			if err != nil {
				return nil, err
			}
			c, err := fe.Compile(inst)
			if err != nil {
				return nil, err
			}
			set, err := parsePolicy(c.LatticeText, c.ConstraintText)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", op.Name, err)
			}
			live[op.Name] = &livePolicy{set: set}
		}
	}
	for name, p := range live {
		p.version = st.versions[name]
	}
	return live, nil
}

// checkChurnFinal fetches each of a client's live policies once the timed
// phase is over and requires the served answer to carry the last acked
// version and to Verify against the client's own rebuilt constraint set.
func checkChurnFinal(k *checks, c *client, ops []churnOp, st *clientState) {
	live, err := replayChurn(ops, st)
	if err != nil {
		k.fail("replaying acked mutations: %v", err)
		return
	}
	names := make([]string, 0, len(live))
	for name := range live {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := live[name]
		k.checked++
		status, etag, err := c.do(http.MethodGet, solvePath(name), nil)
		if err != nil || status != http.StatusOK {
			k.fail("final read of %s: status %d: %v", name, status, err)
			continue
		}
		if etag != p.version {
			k.fail("final read of %s: version %s, last ack %s", name, etag, p.version)
			continue
		}
		var got solveAnswer
		if err := json.Unmarshal(c.body.Bytes(), &got); err != nil {
			k.fail("final read of %s: %v", name, err)
			continue
		}
		m, err := assignmentOf(p.set, got.Assignment)
		if err == nil {
			err = core.Verify(p.set, m)
		}
		if err != nil {
			k.fail("final read of %s: %v", name, err)
		}
	}
}
