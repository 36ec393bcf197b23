package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"minup/internal/obs"
)

// warmup precedes every timed phase: connections open and the server's
// heap and pools reach their steady size before anything is recorded.
const warmup = 500 * time.Millisecond

// answerKey identifies one distinct answer body for one preloaded policy.
type answerKey struct {
	idx  int32
	hash uint64
}

// etagPair is one churn fresh read: the version the mutation acked and
// the version the solve answer carried.
type etagPair struct{ acked, got string }

// classifyAnswer is one classify solve answer, checked after the run.
type classifyAnswer struct {
	op   int
	body []byte
}

// clientState is everything one client records in the timed loop for the
// answer checks that run after it.
type clientState struct {
	rec       recorder
	pos       int
	exhausted bool
	reads     map[answerKey][]byte // hot-read and churn preloaded reads
	fresh     []etagPair           // churn
	acked     []int                // churn: indices of acked mutations, in order
	versions  map[string]string    // churn: ETag of each acked put/append/problem
	classify  []classifyAnswer
}

func newClientState() *clientState {
	return &clientState{reads: make(map[answerKey][]byte), versions: make(map[string]string)}
}

// closedLoop runs step on every client until the timed phase ends: first
// the warm-up, unrecorded, then dur recorded. step returns false once the
// client's pre-generated input is used up. For each whole second of the
// timed phase it returns the guest's CPU share (cpuTicks.share) and the CPU
// time of one refWork run at the start of that second.
func closedLoop(cls []*client, sts []*clientState, dur time.Duration, step func(ci int) bool) (shares, refTimes []float64) {
	t0 := time.Now().Add(warmup)
	end := t0.Add(dur)
	var wg sync.WaitGroup
	shares = make([]float64, int(dur/time.Second))
	refTimes = make([]float64, len(shares))
	ref := newRefState()
	ref.work() // fault its buffers in before anything is timed
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(t0))
		prev := readTicks()
		for w := range shares {
			refTimes[w] = ref.time()
			time.Sleep(time.Until(t0.Add(time.Duration(w+1) * time.Second)))
			cur := readTicks()
			shares[w] = cur.sub(prev).share()
			prev = cur
		}
	}()
	for ci := range cls {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			st := sts[ci]
			st.rec.t0 = t0
			for {
				now := time.Now()
				if now.After(end) {
					return
				}
				st.rec.timed = !now.Before(t0)
				if !step(ci) {
					st.exhausted = true
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	return shares, refTimes
}

// serveAll has the clients fetch every preloaded policy's solve once —
// the last step of set-up for the catalog workloads.
func serveAll(cls []*client, n int) error {
	errs := make([]error, len(cls))
	var wg sync.WaitGroup
	for ci := range cls {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := ci; i < n; i += len(cls) {
				status, _, err := cls[ci].do(http.MethodGet, solvePath(preloadName(i)), nil)
				if err != nil || status != http.StatusOK {
					errs[ci] = fmt.Errorf("set-up solve of %s: status %d: %v %s", preloadName(i), status, err, cls[ci].body.String())
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func solvePath(name string) string  { return "/policies/" + name + "/solve" }
func policyPath(name string) string { return "/policies/" + name }

// readPreloaded is one GET of a preloaded policy's solve, recorded as a
// read; its body is kept once per distinct answer for the reference check.
func readPreloaded(c *client, st *clientState, path string, idx int32) {
	start := time.Now()
	status, _, err := c.do(http.MethodGet, path, nil)
	ok := err == nil && status == http.StatusOK
	st.rec.request(ok, "read", status, err)
	if !ok {
		return
	}
	st.rec.lat(&st.rec.read, start)
	k := answerKey{idx, c.bodyHash()}
	if _, seen := st.reads[k]; !seen {
		st.reads[k] = c.bodyCopy()
	}
}

// hotReadStep: one GET of a Zipf-drawn preloaded policy.
func hotReadStep(c *client, st *clientState, reads []int32, paths []string) bool {
	idx := reads[st.pos%len(reads)]
	st.pos++
	readPreloaded(c, st, paths[idx], idx)
	return true
}

// churnStep: one mutation (or problem POST), the fresh read of what it
// acked, and a read of a Zipf-drawn preloaded policy.
func churnStep(c *client, st *clientState, ops []churnOp, paths []string) bool {
	if st.pos >= len(ops) {
		return false
	}
	i := st.pos
	op := ops[i]
	st.pos++
	start := time.Now()
	var (
		status int
		etag   string
		err    error
	)
	switch op.Kind {
	case opPut:
		status, etag, err = c.do(http.MethodPut, policyPath(op.Name), op.Body)
	case opAppend:
		status, etag, err = c.do(http.MethodPost, policyPath(op.Name)+"/constraints", op.Body)
	case opDelete:
		status, etag, err = c.do(http.MethodDelete, policyPath(op.Name), nil)
	case opProblem:
		status, etag, err = c.do(http.MethodPost, "/problems/"+op.Family+"?name="+url.QueryEscape(op.Name), op.Body)
	}
	ok := err == nil && is2xx(status)
	st.rec.request(ok, op.Kind.String()+" "+op.Name, status, err)
	if ok {
		st.rec.lat(&st.rec.write, start)
		st.acked = append(st.acked, i)
		if op.Kind == opDelete {
			delete(st.versions, op.Name)
		} else {
			st.versions[op.Name] = etag
			fs, fetag, ferr := c.do(http.MethodGet, solvePath(op.Name), nil)
			fok := ferr == nil && fs == http.StatusOK
			st.rec.request(fok, "fresh "+op.Name, fs, ferr)
			if fok {
				st.rec.lat(&st.rec.fresh, start)
				st.fresh = append(st.fresh, etagPair{etag, fetag})
			}
		}
	}
	readPreloaded(c, st, paths[op.Read], op.Read)
	return true
}

// classifyStep: PUT a never-seen instance with ?wait=1, GET its solve,
// DELETE it.
func classifyStep(c *client, st *clientState, ops []classifyOp) bool {
	if st.pos >= len(ops) {
		return false
	}
	i := st.pos
	op := ops[i]
	st.pos++
	start := time.Now()
	status, _, err := c.do(http.MethodPut, policyPath(op.Name)+"?wait=1", op.Body)
	ok := err == nil && status == http.StatusCreated
	st.rec.request(ok, "classify put "+op.Name, status, err)
	if !ok {
		return true
	}
	st.rec.lat(&st.rec.write, start)
	rstart := time.Now()
	status, _, err = c.do(http.MethodGet, solvePath(op.Name), nil)
	ok = err == nil && status == http.StatusOK
	st.rec.request(ok, "classify solve "+op.Name, status, err)
	if ok {
		st.rec.lat(&st.rec.read, rstart)
		st.rec.lat(&st.rec.classify, start)
		st.classify = append(st.classify, classifyAnswer{op: i, body: c.bodyCopy()})
	}
	status, _, err = c.do(http.MethodDelete, policyPath(op.Name), nil)
	st.rec.request(err == nil && status == http.StatusNoContent, "classify delete "+op.Name, status, err)
	return true
}

// scrape fetches the server's metrics registry snapshot.
func scrape(c *client) (obs.Snapshot, error) {
	var snap obs.Snapshot
	status, _, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return snap, fmt.Errorf("scraping /metrics: status %d: %v", status, err)
	}
	return snap, json.Unmarshal(c.body.Bytes(), &snap)
}
