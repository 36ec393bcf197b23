package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"minup/internal/catalog"
	"minup/internal/wal"
	"minup/internal/workload"
)

// inputs are a run's pre-generated operations, all drawn from the seed
// before anything is timed.
type inputs struct {
	preload  []workload.FamilyInstance // hot-read, policy-churn
	reads    [][]int32                 // hot-read, per client
	churn    [][]churnOp               // policy-churn, per client
	classify [][]classifyOp            // classify, per client
}

// Pre-generated operations per client per timed second (plus warm-up):
// 1.5–2× the highest rates seen on a 2-vCPU box (about 800 churn
// operations and 330 classify operations per client per second, when the
// host ran at full speed; generating a classify instance costs about a
// quarter of a millisecond, so more would lengthen every run); running
// out fails the run rather than silently shortening it. Hot reads cycle
// through their draws, so they never run out.
const (
	hotReadsPerSec  = 8000
	churnOpsPerSec  = 1600
	classifyPerSec  = 500
	readyTimeout    = 60 * time.Second
	inputsPerSecPad = 1 // seconds of input beyond the timed phase (covers the warm-up)
)

func genInputs(e *env, wl string) (*inputs, error) {
	in := &inputs{}
	secs := e.seconds + inputsPerSecPad
	if wl != "classify" {
		in.preload = make([]workload.FamilyInstance, preloadPolicies)
		for i := range in.preload {
			fi, err := preload(e.seed, i)
			if err != nil {
				return nil, err
			}
			in.preload[i] = fi
		}
	}
	for c := 0; c < clients; c++ {
		switch wl {
		case "hot-read":
			in.reads = append(in.reads, zipfReads(e.seed, c, hotReadsPerSec*secs))
		case "policy-churn":
			ops, err := churnOps(e.seed, c, churnOpsPerSec*secs)
			if err != nil {
				return nil, err
			}
			in.churn = append(in.churn, ops)
		case "classify":
			ops, err := classifyOps(e.seed, c, classifyPerSec*secs)
			if err != nil {
				return nil, err
			}
			in.classify = append(in.classify, ops)
		}
	}
	return in, nil
}

// prepCatalog writes the preloaded policies into a data directory through
// internal/catalog, with the shard count minupd would choose. Durability
// is not what set-up measures, so the writes skip fsync; Close syncs.
func prepCatalog(ctx context.Context, dir string, pols []workload.FamilyInstance) error {
	cat, err := catalog.Open(catalog.Options{Dir: dir, Sync: wal.SyncNever, Shards: runtime.GOMAXPROCS(0)})
	if err != nil {
		return err
	}
	for i, p := range pols {
		if _, err := cat.Put(ctx, preloadName(i), p.Lattice, p.Constraints, catalog.Unconditional); err != nil {
			cat.Close()
			return err
		}
	}
	if err := cat.Flush(ctx); err != nil {
		cat.Close()
		return err
	}
	return cat.Close()
}

// copyDir copies a flat data directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	// On disk before anything is timed, so no writeback of the copy runs
	// during a set-up or replay.
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// sourceDigest hashes the module's Go sources and go.mod, identifying the
// code under test when the checkout carries no git metadata.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// runE2E runs one untraced end-to-end measurement: set-up groups×size
// times, then the timed phase on the last server, then the answer checks.
func runE2E(ctx context.Context, e *env, wl string, groups, size int, scrapes bool) (*e2eResult, error) {
	in, err := genInputs(e, wl)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	prep := ""
	if wl != "classify" {
		prep = filepath.Join(e.work, "prep")
		if err := prepCatalog(ctx, prep, in.preload); err != nil {
			return nil, fmt.Errorf("preparing catalog: %w", err)
		}
	}
	paths := make([]string, preloadPolicies)
	for i := range paths {
		paths[i] = solvePath(preloadName(i))
	}

	// Host speed is calibrated before and after the set-ups for setup_s,
	// and every second of the timed phase by closedLoop.
	ref := newRefState()
	res := &e2eResult{setupGroup: size, setupRef: ref.calibrate()}
	var srv *server
	var cls []*client
	closeClients := func() {
		for _, c := range cls {
			c.close()
		}
	}
	for k := 0; k < groups*size; k++ {
		if srv != nil {
			closeClients()
			srv.stop()
		}
		// Every set-up recovers a fresh copy of the same prepared catalog,
		// with no garbage from input generation or the last set-up left to
		// collect while it runs.
		dataDir := ""
		if prep != "" {
			dataDir = filepath.Join(e.work, fmt.Sprintf("data%d", k))
			if err := os.RemoveAll(filepath.Join(e.work, fmt.Sprintf("data%d", k-1))); err != nil {
				return nil, err
			}
			if err := copyDir(prep, dataDir); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		tk0 := readTicks()
		t0 := time.Now()
		srv, err = launch(ctx, e.bin, e.work, dataDir, readyTimeout)
		if err != nil {
			return nil, err
		}
		setLive(srv)
		res.readies = append(res.readies, time.Since(t0).Seconds())
		cls = make([]*client, clients)
		for i := range cls {
			cls[i] = newClient(srv.base)
		}
		if prep != "" {
			if err := serveAll(cls, preloadPolicies); err != nil {
				return nil, err
			}
		}
		wall := time.Since(t0).Seconds()
		tk1 := readTicks()
		res.setups = append(res.setups, wall)
		res.setupTicks = append(res.setupTicks, tk1.sub(tk0))
	}
	defer stopLive()
	defer closeClients()

	if scrapes {
		if res.before, err = scrape(cls[0]); err != nil {
			return nil, err
		}
	}
	res.sts = make([]*clientState, clients)
	for i := range res.sts {
		res.sts[i] = newClientState()
	}
	res.dur = time.Duration(e.seconds) * time.Second
	var step func(ci int) bool
	switch wl {
	case "hot-read":
		step = func(ci int) bool { return hotReadStep(cls[ci], res.sts[ci], in.reads[ci], paths) }
	case "policy-churn":
		step = func(ci int) bool { return churnStep(cls[ci], res.sts[ci], in.churn[ci], paths) }
	case "classify":
		step = func(ci int) bool { return classifyStep(cls[ci], res.sts[ci], in.classify[ci]) }
	}
	res.setupRef = append(res.setupRef, ref.calibrate()...)
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	tk0 := readTicks()
	res.shares, res.windowRef = closedLoop(cls, res.sts, res.dur, step)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	tk := readTicks().sub(tk0)
	res.cpuSec = cpu1 - cpu0
	res.stealPct = 100 * ratio(tk.steal, tk.busy+tk.steal)

	if scrapes {
		if res.after, err = scrape(cls[0]); err != nil {
			return nil, err
		}
	}
	if res.rssMiB, err = srv.peakRSSMiB(); err != nil {
		return nil, err
	}
	if wl == "policy-churn" {
		for ci, st := range res.sts {
			checkChurnFinal(&res.checks, cls[ci], in.churn[ci], st)
		}
	}
	closeClients()
	stopLive()
	switch wl {
	case "hot-read":
		checkPreloadedReads(&res.checks, in.preload, res.sts)
	case "policy-churn":
		checkPreloadedReads(&res.checks, in.preload, res.sts)
		checkFresh(&res.checks, res.sts)
	case "classify":
		res.probed = checkClassify(&res.checks, in.classify, res.sts)
	}
	return res, nil
}

// parallel runs fn(i) for i in [0, n) on GOMAXPROCS goroutines.
func parallel(n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
