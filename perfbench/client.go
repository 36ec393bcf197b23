package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"
)

// client is one closed-loop caller on its own keep-alive connection: it
// sends a request, reads the whole answer, then sends the next.
type client struct {
	hc   *http.Client
	base string
	body bytes.Buffer // the last answer's body, reused across requests
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the answer into c.body. A non-nil error
// is a transport failure; the status is the caller's to judge.
func (c *client) do(method, path string, body []byte) (status int, etag string, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get("ETag"), nil
}

func (c *client) bodyHash() uint64 {
	h := fnv.New64a()
	h.Write(c.body.Bytes())
	return h.Sum64()
}

func (c *client) bodyCopy() []byte { return append([]byte(nil), c.body.Bytes()...) }

// recorder collects one client's timed-phase observations. Before t0 (the
// warm-up) nothing is recorded.
type recorder struct {
	t0        time.Time
	timed     bool
	attempted int
	failed    int
	windows   []int // successful requests per whole second since t0
	read      samples
	write     samples
	fresh     samples
	classify  samples
	errs      []string // first few failures, for the report
	served    int      // successful requests, warm-up included
}

// request accounts for one request; ok reports a 2xx answer without a
// transport error.
func (r *recorder) request(ok bool, what string, status int, err error) {
	if ok {
		r.served++
	}
	if !r.timed {
		return
	}
	r.attempted++
	if ok {
		w := int(time.Since(r.t0) / time.Second)
		for len(r.windows) <= w {
			r.windows = append(r.windows, 0)
		}
		r.windows[w]++
		return
	}
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("%s: status %d err %v", what, status, err))
	}
}

// lat records a latency from start until now, with the window it ended in.
func (r *recorder) lat(s *samples, start time.Time) {
	if r.timed {
		now := time.Now()
		s.add(float64(now.Sub(start).Nanoseconds())/1e3, int(now.Sub(r.t0)/time.Second))
	}
}

func is2xx(status int) bool { return status >= 200 && status < 300 }
