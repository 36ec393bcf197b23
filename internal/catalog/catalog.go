// Package catalog is the durable multi-tenant policy store behind minupd's
// /policies API: named, monotonically versioned policies (a security
// lattice plus a classification-constraint set), compiled once per version
// into the existing constraint.Compiled snapshot and served from a
// memoized solve cache.
//
// The catalog is built as three layers:
//
//   - Storage (store.go). Each shard persists through the Store interface —
//     append a mutation record, load snapshot+replay, compact, close. The
//     durable implementation (walStore) is the existing WAL+snapshot
//     machinery: every mutation is written to an append-only log
//     (internal/wal: length+CRC32 frames, fsync policy knob) *before* it is
//     applied in memory, and the log is periodically compacted into an
//     atomically replaced snapshot file. Reopening yields exactly the state
//     of the mutations that reached the disk; a torn final frame is
//     truncated, losing at most the one interrupted mutation, and sequence
//     numbers make replay immune to the crash window between "snapshot
//     written" and "log reset". MemStore is the in-memory implementation
//     behind memory-only catalogs and tests.
//
//   - Sharding (this file). Policies are partitioned across N shards by an
//     FNV-1a hash of the policy name. Each shard owns its own Store (its
//     own WAL file, snapshot, and compaction counter) and its own RWMutex,
//     so mutations and cache fills on unrelated policies never contend; a
//     cache-hit read takes only a read lock. Recovery runs concurrently,
//     one goroutine per shard. The shard count is pinned by a meta file in
//     the data directory — membership depends on N, so an existing
//     directory's count always wins over the Options value.
//
//   - Mutation pipeline (pipeline.go). Ingest is decoupled from
//     compile/solve: a mutation returns once its WAL append is durable and
//     the in-memory maps are updated, and a per-shard background worker —
//     fed through internal/bus — recompiles and refreshes the memoized
//     solve (incrementally via core.RepairContext when the cache was
//     warm). MutateOptions.Wait restores fully synchronous semantics, and
//     Flush drains the pipeline for deterministic tests and shutdown.
//
// Serving an unchanged policy performs zero compiles and zero solves
// ("catalog.cache_hits"); optimistic concurrency (If-Match versions) keeps
// its linear history per name because each name lives on exactly one shard
// and every mutation holds that shard's write lock.
package catalog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minup/internal/bus"
	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/fault"
	"minup/internal/lattice"
	"minup/internal/obs"
	"minup/internal/wal"
)

// Typed errors. Match with errors.Is; the HTTP layer maps them to 404, 409,
// 412, and 503.
var (
	// ErrNotFound reports a name with no policy behind it.
	ErrNotFound = errors.New("catalog: policy not found")
	// ErrExists reports a create-only Put (If-None-Match: *) against an
	// existing policy.
	ErrExists = errors.New("catalog: policy already exists")
	// ErrVersionMismatch reports a failed optimistic-concurrency
	// precondition: the caller's expected version is not the current one.
	ErrVersionMismatch = errors.New("catalog: version precondition failed")
	// ErrStorage marks a WAL write failure: the mutation was valid but
	// could not be made durable, and was therefore not applied. The HTTP
	// layer maps it to 500 instead of the 4xx a validation failure gets.
	ErrStorage = errors.New("catalog: storage failure")
	// ErrSnapshotCorrupt reports that a shard's snapshot file could not be
	// decoded or applied during Open — bit rot, truncation, or manual
	// editing. Counted under "catalog.snapshot_corrupt". Recovery refuses
	// to guess: the operator decides whether to restore or delete the file.
	ErrSnapshotCorrupt = errors.New("catalog: snapshot corrupt")
	// ErrClosed reports a mutation against a closed catalog.
	ErrClosed = errors.New("catalog: closed")
)

// Unconditional is the ifVersion value for mutations without an
// optimistic-concurrency precondition.
const Unconditional int64 = -1

// MustNotExist is the ifVersion value for create-only Puts.
const MustNotExist int64 = 0

// Options configures a catalog.
type Options struct {
	// Dir is the data directory for the per-shard WAL and snapshot files.
	// Empty means memory-only: no durability, everything else identical.
	Dir string
	// Sync is the WAL fsync policy (wal.SyncAlways by default).
	Sync wal.SyncPolicy
	// Metrics, when non-nil, receives the catalog.*, bus.*, and wal.*
	// series.
	Metrics *obs.Registry
	// Flight, when non-nil, receives one FlightRecord per refresh-pipeline
	// job (outcome, duration, policy identity), so stalled or crashing
	// refreshes are visible in /debug/requests next to the HTTP traffic
	// that caused them.
	Flight *obs.FlightRecorder
	// Logger, when non-nil, is handed to the internal bus for rate-limited
	// dropped-event warnings.
	Logger *slog.Logger
	// Fault, when non-nil, arms the "catalog.compile", "wal.append", and
	// "wal.fsync" fault points for chaos testing.
	Fault *fault.Injector
	// SnapshotEvery compacts a shard's WAL into its snapshot after this
	// many records on that shard (0 uses the default of 256; negative
	// disables compaction).
	SnapshotEvery int
	// Shards is the number of independent shards policies are hashed
	// across (0 or negative uses GOMAXPROCS). For a durable catalog the
	// value is only honored when the data directory is new: an existing
	// directory's meta file pins the count it was created with, because
	// shard membership depends on it.
	Shards int
	// OpenStore, when non-nil, supplies shard i's Store instead of the
	// default (a walStore under Dir, or a fresh MemStore when Dir is
	// empty). Tests use it to inject per-shard faults or to hand a
	// reopened catalog the MemStores of a "crashed" one.
	OpenStore func(shard int) (Store, error)
	// OnRecord, when non-nil, is called once per record durably appended to
	// a shard's store — live mutations and replicated applies alike, but
	// not recovery replay — under that shard's write lock, in sequence
	// order. The cluster replication layer hangs its per-shard frame ring
	// off this hook; it must be fast and must not call back into the
	// catalog. The payload is the exact bytes written to the store and must
	// not be mutated.
	OnRecord func(RecordEvent)
}

// RecordEvent describes one durably appended store record for OnRecord.
type RecordEvent struct {
	Shard   int
	Seq     uint64
	Payload []byte
}

const defaultSnapshotEvery = 256

// metaFile pins directory-level invariants, today just the shard count.
type metaFile struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// RecoveryInfo reports what Open reconstructed from the data directory.
type RecoveryInfo struct {
	// SnapshotPolicies is the number of policies loaded from shard
	// snapshots; WALRecords the number of live WAL records replayed on
	// top, summed across shards.
	SnapshotPolicies, WALRecords int
	// TornTail reports that at least one shard's WAL ended in a torn frame
	// that was cut.
	TornTail bool
	// Shards is the shard count the catalog opened with.
	Shards int
	// Duration is the wall time of the whole (concurrent) recovery.
	Duration time.Duration
}

// policy is one named catalog entry. All fields are guarded by the owning
// shard's lock. The set and compiled values are immutable once installed —
// mutations clone-and-swap — so the refresh pipeline may read them outside
// the lock.
type policy struct {
	name        string
	shard       int
	version     uint64
	latticeText string
	consTexts   []string // the Put text followed by each appended batch
	lat         lattice.Lattice
	set         *constraint.Set
	// compiled is the one snapshot of the current version, built lazily or
	// by the refresh worker; memo is the current version's memoized answer.
	// Both are dropped on every mutation.
	compiled *constraint.Compiled
	memo     *memo
}

// shard is one hash partition: its own policies, its own Store, its own
// lock, its own compaction counter.
type shard struct {
	id        int
	mu        sync.RWMutex
	store     Store
	pol       map[string]*policy
	seq       uint64 // last sequence number written to (or restored from) the store
	snapSeq   uint64 // sequence number the shard's snapshot covers
	sinceSnap int
	closed    bool
	sub       *bus.Subscription // the refresh worker's feed

	// Recovery bookkeeping, written only during Open.
	snapPolicies, walRecords int
	tornTail                 bool
}

// Catalog is the policy store. Construct with Open; safe for concurrent
// use.
type Catalog struct {
	opt      Options
	shards   []*shard
	bus      *bus.Bus
	pending  pendingTracker
	workers  sync.WaitGroup
	closed   atomic.Bool
	policies atomic.Int64 // live policy count across shards
	recovery RecoveryInfo
}

// walRecord is the JSON payload of one store record.
type walRecord struct {
	Seq         uint64 `json:"seq"`
	Op          string `json:"op"` // "put" | "append" | "delete"
	Name        string `json:"name"`
	Lattice     string `json:"lattice,omitempty"`
	Constraints string `json:"constraints,omitempty"`
}

// snapshotFile is the JSON shape of one shard's compacted snapshot (and,
// with LastSeq zeroed, of the catalog-wide Fingerprint).
type snapshotFile struct {
	LastSeq  uint64           `json:"last_seq"`
	Policies []snapshotPolicy `json:"policies"`
}

type snapshotPolicy struct {
	Name        string   `json:"name"`
	Version     uint64   `json:"version"`
	Lattice     string   `json:"lattice"`
	Constraints []string `json:"constraints"`
}

// shardFor routes a policy name to its shard: inline FNV-1a (no
// allocation, keeps the read path at its alloc budget).
func (c *Catalog) shardFor(name string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// Open creates a catalog. With Options.Dir set it recovers the persisted
// state, all shards concurrently: each shard's snapshot (if any) is loaded,
// then every WAL record past the snapshot's sequence number is replayed,
// and a torn final frame is truncated. Reopening a directory therefore
// always yields exactly the state of the mutations that reached the disk.
func Open(opt Options) (*Catalog, error) {
	if opt.SnapshotEvery == 0 {
		opt.SnapshotEvery = defaultSnapshotEvery
	}
	if opt.Shards <= 0 {
		opt.Shards = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	if opt.Dir != "" {
		if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
		n, err := loadOrInitMeta(opt.Dir, opt.Shards, opt.Sync == wal.SyncAlways)
		if err != nil {
			return nil, err
		}
		opt.Shards = n
	}
	c := &Catalog{
		opt: opt,
		bus: bus.New(bus.Options{Metrics: opt.Metrics, Logger: opt.Logger}),
	}
	c.recovery.Shards = opt.Shards
	for i := 0; i < opt.Shards; i++ {
		s := &shard{id: i, pol: make(map[string]*policy)}
		var err error
		switch {
		case opt.OpenStore != nil:
			s.store, err = opt.OpenStore(i)
		case opt.Dir != "":
			s.store = openWALStore(opt.Dir, i, wal.Options{
				Sync:    opt.Sync,
				Metrics: opt.Metrics,
				Fault:   opt.Fault,
			})
		default:
			s.store = NewMemStore()
		}
		if err != nil {
			c.closeStores()
			return nil, fmt.Errorf("catalog: opening shard %d store: %w", i, err)
		}
		c.shards = append(c.shards, s)
	}

	// Recover every shard concurrently; the first failure aborts the open.
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, s := range c.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			errs[i] = c.recoverShard(s)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			c.closeStores()
			return nil, err
		}
	}
	for _, s := range c.shards {
		c.recovery.SnapshotPolicies += s.snapPolicies
		c.recovery.WALRecords += s.walRecords
		c.recovery.TornTail = c.recovery.TornTail || s.tornTail
		c.policies.Add(int64(len(s.pol)))
		if opt.SnapshotEvery > 0 && s.sinceSnap >= opt.SnapshotEvery {
			if err := c.compactShard(s); err != nil {
				c.closeStores()
				return nil, err
			}
		}
	}
	c.recovery.Duration = time.Since(start)
	c.setGauges()

	// Start the refresh pipeline: one worker per shard, fed over the bus.
	for _, s := range c.shards {
		s.sub = c.bus.Subscribe(refreshTopic(s.id), refreshBuffer)
		c.workers.Add(1)
		go c.refreshWorker(s)
	}
	return c, nil
}

// loadOrInitMeta reads the data directory's meta file, creating it with
// shards when absent. An existing file wins: shard membership is a function
// of the count, so changing it on a populated directory would orphan
// policies.
func loadOrInitMeta(dir string, shards int, sync bool) (int, error) {
	path := filepath.Join(dir, "catalog.meta.json")
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		out, err := json.MarshalIndent(metaFile{Version: 1, Shards: shards}, "", "  ")
		if err != nil {
			return 0, fmt.Errorf("catalog: encoding meta: %w", err)
		}
		if err := wal.WriteAtomic(path, append(out, '\n'), sync); err != nil {
			return 0, fmt.Errorf("catalog: writing meta: %w", err)
		}
		return shards, nil
	case err != nil:
		return 0, fmt.Errorf("catalog: reading meta: %w", err)
	}
	var meta metaFile
	if err := json.Unmarshal(data, &meta); err != nil {
		return 0, fmt.Errorf("catalog: decoding meta %s: %w", path, err)
	}
	if meta.Shards < 1 {
		return 0, fmt.Errorf("catalog: meta %s declares %d shards", path, meta.Shards)
	}
	return meta.Shards, nil
}

// recoverShard loads one shard's snapshot and replays its log. Snapshot
// decode/apply failures are surfaced as ErrSnapshotCorrupt — the snapshot
// is a file the catalog wrote itself, so any undecodable state means
// corruption, not version skew.
func (s *shard) loadSnapshot(data []byte) error {
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("%w: shard %d: decoding: %w", ErrSnapshotCorrupt, s.id, err)
	}
	for _, sp := range snap.Policies {
		if len(sp.Constraints) == 0 {
			return fmt.Errorf("%w: shard %d: policy %q has no constraint text", ErrSnapshotCorrupt, s.id, sp.Name)
		}
		if err := s.applyPut(sp.Name, sp.Lattice, sp.Constraints[0]); err != nil {
			return fmt.Errorf("%w: shard %d: policy %q: %w", ErrSnapshotCorrupt, s.id, sp.Name, err)
		}
		for _, batch := range sp.Constraints[1:] {
			if err := s.applyAppend(sp.Name, batch); err != nil {
				return fmt.Errorf("%w: shard %d: policy %q: %w", ErrSnapshotCorrupt, s.id, sp.Name, err)
			}
		}
		s.pol[sp.Name].version = sp.Version
	}
	s.seq = snap.LastSeq
	s.snapSeq = snap.LastSeq
	s.snapPolicies = len(snap.Policies)
	return nil
}

func (c *Catalog) recoverShard(s *shard) error {
	ls, err := s.store.Load(
		func(data []byte) error {
			if err := s.loadSnapshot(data); err != nil {
				c.count("catalog.snapshot_corrupt")
				return err
			}
			return nil
		},
		s.replayRecord,
	)
	if err != nil {
		return err
	}
	s.tornTail = ls.TornTail
	s.sinceSnap = s.walRecords
	return nil
}

// replayRecord applies one log record during Open. Records at or below the
// snapshot's sequence number are the crash window between "snapshot
// written" and "WAL reset"; they are already reflected in the snapshot and
// are skipped.
func (s *shard) replayRecord(payload []byte) error {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("catalog: decoding WAL record: %w", err)
	}
	if rec.Seq <= s.snapSeq {
		return nil
	}
	var err error
	switch rec.Op {
	case "put":
		err = s.applyPut(rec.Name, rec.Lattice, rec.Constraints)
	case "append":
		err = s.applyAppend(rec.Name, rec.Constraints)
	case "delete":
		err = s.applyDelete(rec.Name)
	default:
		err = fmt.Errorf("unknown op %q", rec.Op)
	}
	if err != nil {
		return fmt.Errorf("catalog: WAL record seq %d (%s %q): %w", rec.Seq, rec.Op, rec.Name, err)
	}
	s.seq = rec.Seq
	s.walRecords++
	return nil
}

// RecoveryInfo reports what Open reconstructed. Zero counts for memory-only
// catalogs.
func (c *Catalog) RecoveryInfo() RecoveryInfo { return c.recovery }

// closeStores closes every shard store that Open managed to create; used on
// the Open failure paths.
func (c *Catalog) closeStores() {
	for _, s := range c.shards {
		if s.store != nil {
			s.store.Close()
		}
	}
}

// Close drains the refresh pipeline and releases every shard's store.
// Idempotent and safe to race with mutations: the first call wins, later
// calls (and mutations that lose the race) observe ErrClosed. Durable state
// needs no flushing — every mutation is WAL-first — so drain only has to
// let in-flight cache refreshes finish.
func (c *Catalog) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Stop the pipeline: closing each subscription lets its worker drain
	// the buffered refreshes and exit; refreshes published by mutations
	// still in flight after this point are counted dropped (the bus is
	// lossy by contract, and a cold cache merely refills on next read).
	for _, s := range c.shards {
		s.sub.Close()
	}
	c.workers.Wait()
	c.bus.Close()
	var first error
	for _, s := range c.shards {
		s.mu.Lock()
		s.closed = true
		if err := s.store.Close(); err != nil && first == nil {
			first = err
		}
		s.mu.Unlock()
	}
	return first
}

// ---------------------------------------------------------------------------
// In-memory apply functions: the side of a mutation shared by the live path
// and recovery replay. They validate, parse, and swap state, but never
// touch the store, never solve, and never check preconditions (a record in
// the log already passed them).

func validName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("catalog: policy name must be 1..128 characters")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("catalog: policy name %q may only contain [A-Za-z0-9._-]", name)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("catalog: policy name %q is reserved", name)
	}
	return nil
}

// buildPolicy parses lattice and constraint text into a fresh policy value
// (version and shard unset).
func buildPolicy(name, latticeText, constraintsText string) (*policy, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	lat, err := lattice.Parse(strings.NewReader(latticeText))
	if err != nil {
		return nil, fmt.Errorf("catalog: policy %q lattice: %w", name, err)
	}
	set := constraint.NewSet(lat)
	if err := set.ParseString(constraintsText); err != nil {
		return nil, fmt.Errorf("catalog: policy %q constraints: %w", name, err)
	}
	return &policy{
		name:        name,
		latticeText: latticeText,
		consTexts:   []string{constraintsText},
		lat:         lat,
		set:         set,
	}, nil
}

func (s *shard) applyPut(name, latticeText, constraintsText string) error {
	p, err := buildPolicy(name, latticeText, constraintsText)
	if err != nil {
		return err
	}
	p.shard = s.id
	if old := s.pol[name]; old != nil {
		p.version = old.version + 1
	} else {
		p.version = 1
	}
	s.pol[name] = p
	return nil
}

func (s *shard) applyAppend(name, constraintsText string) error {
	p := s.pol[name]
	if p == nil {
		return ErrNotFound
	}
	ns := p.set.Clone()
	if err := ns.ParseString(constraintsText); err != nil {
		return fmt.Errorf("catalog: policy %q append: %w", name, err)
	}
	p.set = ns
	p.consTexts = append(p.consTexts, constraintsText)
	p.version++
	p.compiled = nil
	p.memo = nil
	return nil
}

func (s *shard) applyDelete(name string) error {
	if s.pol[name] == nil {
		return ErrNotFound
	}
	delete(s.pol, name)
	return nil
}

// ---------------------------------------------------------------------------
// Durability helpers. All called under the owning shard's write lock.

// logRecord writes one record to the shard's store. Write-ahead ordering:
// the caller applies the mutation in memory only after logRecord returns
// nil, so a crash at any point leaves memory ⊆ disk, never ahead of it.
func (c *Catalog) logRecord(s *shard, rec walRecord) error {
	rec.Seq = s.seq + 1
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("catalog: encoding WAL record: %w", err)
	}
	if err := s.store.Append(payload); err != nil {
		return fmt.Errorf("%w: %w", ErrStorage, err)
	}
	s.seq = rec.Seq
	s.sinceSnap++
	if c.opt.OnRecord != nil {
		c.opt.OnRecord(RecordEvent{Shard: s.id, Seq: rec.Seq, Payload: payload})
	}
	return nil
}

// maybeCompact snapshots and resets the shard's log when it has grown past
// the compaction threshold. Compaction failures are counted but do not fail
// the mutation that triggered them — the log alone is still a complete,
// durable history, and the shard's next mutation retries.
func (c *Catalog) maybeCompact(s *shard) {
	if c.opt.SnapshotEvery <= 0 || s.sinceSnap < c.opt.SnapshotEvery {
		return
	}
	if err := c.compactShard(s); err != nil {
		c.count("catalog.compaction_errors")
	}
}

// compactShard writes the shard's full state to its snapshot (atomically)
// and then resets its log. The snapshot records the sequence number it
// covers, so a crash between the two steps merely replays records the
// snapshot already contains — replay skips them by sequence number.
func (c *Catalog) compactShard(s *shard) error {
	pols := make([]snapshotPolicy, 0, len(s.pol))
	for _, p := range s.pol {
		pols = append(pols, snapshotPolicyOf(p))
	}
	data, err := encodeSnapshot(s.seq, pols)
	if err != nil {
		return err
	}
	if err := s.store.Compact(data); err != nil {
		return err
	}
	s.snapSeq = s.seq
	s.sinceSnap = 0
	c.count("catalog.snapshots")
	return nil
}

// snapshotPolicyOf copies one policy's durable fields into its snapshot
// shape. Caller holds at least the owning shard's read lock: the copy is
// what makes it safe to marshal after the lock is released, while appends
// keep mutating the *policy in place under the write lock.
func snapshotPolicyOf(p *policy) snapshotPolicy {
	return snapshotPolicy{
		Name:        p.name,
		Version:     p.version,
		Lattice:     p.latticeText,
		Constraints: append([]string(nil), p.consTexts...),
	}
}

// encodeSnapshot serializes already-copied policies deterministically:
// sorted by name, stable JSON field order, trailing newline.
func encodeSnapshot(lastSeq uint64, pols []snapshotPolicy) ([]byte, error) {
	sort.Slice(pols, func(i, j int) bool { return pols[i].Name < pols[j].Name })
	snap := snapshotFile{LastSeq: lastSeq, Policies: pols}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("catalog: encoding snapshot: %w", err)
	}
	return append(data, '\n'), nil
}

// Fingerprint returns a deterministic serialization of the full catalog
// state (names, versions, lattice and constraint text, sorted across all
// shards). Two catalogs with equal fingerprints hold byte-identical policy
// state — the equality the crash-recovery chaos tests assert. Sequence
// numbers and the shard count are deliberately excluded: they describe the
// history's framing and its partitioning, not the state, so fingerprints
// compare across different shard counts. Policy fields are copied under
// each shard's read lock; only the copies are marshaled afterwards.
func (c *Catalog) Fingerprint() []byte {
	pols := make([]snapshotPolicy, 0, c.policies.Load())
	for _, s := range c.shards {
		s.mu.RLock()
		for _, p := range s.pol {
			pols = append(pols, snapshotPolicyOf(p))
		}
		s.mu.RUnlock()
	}
	data, err := encodeSnapshot(0, pols)
	if err != nil {
		panic(err) // marshal of plain strings cannot fail
	}
	return data
}

// ---------------------------------------------------------------------------
// Metrics helpers.

func (c *Catalog) count(name string) {
	if c.opt.Metrics != nil {
		c.opt.Metrics.Counter(name).Inc()
	}
}

// setGauges refreshes the catalog-wide and per-shard policy gauges. The
// per-shard reads are racy snapshots (no shard lock), which is fine for a
// gauge.
func (c *Catalog) setGauges() {
	if c.opt.Metrics == nil {
		return
	}
	c.opt.Metrics.Gauge("catalog.policies").Set(c.policies.Load())
	for _, s := range c.shards {
		c.opt.Metrics.Gauge(fmt.Sprintf("catalog.shard.%d.policies", s.id)).Set(int64(len(s.pol)))
	}
}

// shardGauge updates one shard's policy gauge; called under the shard lock.
func (c *Catalog) shardGauge(s *shard) {
	if c.opt.Metrics != nil {
		c.opt.Metrics.Gauge("catalog.policies").Set(c.policies.Load())
		c.opt.Metrics.Gauge(fmt.Sprintf("catalog.shard.%d.policies", s.id)).Set(int64(len(s.pol)))
	}
}

// ---------------------------------------------------------------------------
// Public query API. (Mutations live in pipeline.go.)

// PolicyInfo is the externally visible description of one policy version.
type PolicyInfo struct {
	Name        string `json:"name"`
	Version     uint64 `json:"version"`
	Attrs       int    `json:"attrs"`
	Constraints int    `json:"constraints"`
	UpperBounds int    `json:"upper_bounds"`
	// Shard is the hash partition the policy lives on; Compiled and Solved
	// report the state of the version's memoized artifacts (false right
	// after an async mutation, true once the refresh pipeline — or a read
	// — has warmed them).
	Shard    int  `json:"shard"`
	Compiled bool `json:"compiled"`
	Solved   bool `json:"solved"`
	// Lattice and ConstraintText are the policy's source texts; the
	// constraint text is the Put batch followed by every appended batch.
	Lattice        string `json:"lattice,omitempty"`
	ConstraintText string `json:"constraints_text,omitempty"`
}

func (p *policy) info() PolicyInfo {
	return PolicyInfo{
		Name:           p.name,
		Version:        p.version,
		Attrs:          p.set.NumAttrs(),
		Constraints:    len(p.set.Constraints()),
		UpperBounds:    len(p.set.UpperBounds()),
		Shard:          p.shard,
		Compiled:       p.compiled != nil,
		Solved:         p.memo != nil,
		Lattice:        p.latticeText,
		ConstraintText: strings.Join(p.consTexts, "\n"),
	}
}

// checkVersion enforces the optimistic-concurrency precondition against
// the current state of name on shard s. ifVersion: Unconditional (-1)
// accepts any state; MustNotExist (0) requires absence; a positive value
// requires the policy to exist at exactly that version.
func checkVersion(s *shard, name string, ifVersion int64, mustExist bool) error {
	p := s.pol[name]
	switch {
	case ifVersion == Unconditional:
		if p == nil && mustExist {
			return fmt.Errorf("%w: %q", ErrNotFound, name)
		}
	case ifVersion == MustNotExist:
		if p != nil {
			return fmt.Errorf("%w: %q is at version %d", ErrExists, name, p.version)
		}
	default:
		if p == nil {
			return fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		if p.version != uint64(ifVersion) {
			return fmt.Errorf("%w: %q is at version %d, precondition %d",
				ErrVersionMismatch, name, p.version, ifVersion)
		}
	}
	return nil
}

// Get returns the policy's current description, or ErrNotFound.
func (c *Catalog) Get(name string) (PolicyInfo, error) {
	s := c.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := s.pol[name]
	if p == nil {
		return PolicyInfo{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return p.info(), nil
}

// List returns every policy's description (without the source texts),
// sorted by name across all shards.
func (c *Catalog) List() []PolicyInfo {
	out := make([]PolicyInfo, 0, c.policies.Load())
	for _, s := range c.shards {
		s.mu.RLock()
		for _, p := range s.pol {
			info := p.info()
			info.Lattice, info.ConstraintText = "", ""
			out = append(out, info)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of policies across all shards.
func (c *Catalog) Len() int { return int(c.policies.Load()) }

// Bus exposes the catalog's event bus so external observers (metrics
// shippers, the future WAL-shipping replicator of ROADMAP item 1) can
// subscribe to TopicMutations and TopicRefreshed.
func (c *Catalog) Bus() *bus.Bus { return c.bus }

// SolveResult is the answer of Catalog.Solve.
type SolveResult struct {
	Info PolicyInfo
	// Assignment maps attribute names to formatted level names (nil for a
	// CacheOnly call that found no memoized answer).
	Assignment map[string]string
	// Stats are the operation counts of the solve that produced the
	// memoized answer (a cache hit returns the original solve's stats).
	Stats core.Stats
	// CacheHit reports that the answer came from the memoized cache: zero
	// compiles and zero solves were performed by this call.
	CacheHit bool
	// Body and ETag are set on cache hits only: the hit's Answer as
	// indented JSON plus a newline, and the version's entity tag. The
	// version renders them on its first hit; every later hit shares them,
	// so the bytes must not be modified.
	Body []byte
	ETag string
	// Set is the version's constraint set and Memo its memoized minimal
	// solution (nil while cold). Both are immutable once installed, so a
	// caller may, say, run the Qian baseline on the same version.
	Set  *constraint.Set
	Memo constraint.Assignment
}

// SolveOptions tunes one Solve call.
type SolveOptions struct {
	// Fresh solves even when the answer is memoized: the compiled snapshot
	// is taken under the shard lock, the solve runs outside it, and its
	// answer is never memoized.
	Fresh bool
	// CacheOnly never solves: without a memoized answer the result carries
	// only Info, Set and a nil Assignment. It overrides Fresh.
	CacheOnly bool
	// Capture, when non-nil, supplies the event sink of a solve this call
	// runs (obs.ActiveFlight implements it); a cache hit never asks.
	Capture interface{ CaptureSink() obs.EventSink }
	// LatticeOps counts lattice operations into that solve's stats.
	LatticeOps bool
}

// Solve returns the minimal classification for the policy's current
// version. Warm policies are served from the memoized cache
// ("catalog.cache_hits") under only the shard's read lock, with no compile
// and no solve; the version's first hit renders the answer (SolveResult.Body)
// that every later hit shares. A cold version — the refresh pipeline hasn't
// caught up, or its event was dropped — is filled here under the shard's
// write lock, compiling the snapshot (at most once per version,
// "catalog.compiles", fault point "catalog.compile") and running one cold
// solve ("solve.cold", "catalog.cache_misses"), then memoizing.
// SolveOptions asks for a fresh solve ("catalog.fresh_solves") or a
// cache-only lookup instead. A solver error comes back with the version's
// Info, Set and Memo, so the caller can fall back to a baseline answer.
func (c *Catalog) Solve(ctx context.Context, name string, opts ...SolveOptions) (SolveResult, error) {
	var opt SolveOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	fresh := opt.Fresh && !opt.CacheOnly
	s := c.shardFor(name)
	s.mu.RLock()
	p := s.pol[name]
	if p != nil && (opt.CacheOnly || p.memo != nil && !fresh) {
		res, m := solveResult(p), p.memo
		s.mu.RUnlock()
		if m != nil {
			res.fillHit(m)
			c.count("catalog.cache_hits")
		}
		return res, nil
	}
	s.mu.RUnlock()

	var compiled *constraint.Compiled
	var hit *memo
	out, err := func() (SolveResult, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		// Double-check under the write lock: the policy may have been
		// mutated, deleted, or warmed since the read lock was dropped.
		p = s.pol[name]
		if p == nil {
			return SolveResult{}, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		if p.memo != nil && !fresh {
			hit = p.memo
			return solveResult(p), nil
		}
		if !fresh {
			c.count("catalog.cache_misses")
		}
		if p.compiled == nil {
			if err := c.opt.Fault.Hit("catalog.compile"); err != nil {
				return SolveResult{}, fmt.Errorf("catalog: compiling %q: %w", name, err)
			}
			p.compiled = p.set.Snapshot()
			c.count("catalog.compiles")
		}
		if fresh {
			compiled = p.compiled
			return SolveResult{Info: p.info(), Set: p.set, Memo: p.memo.solution()}, nil
		}
		c.count("solve.cold")
		res, err := core.SolveContext(ctx, p.compiled, c.coreOptions(opt))
		if err != nil {
			return SolveResult{Info: p.info(), Set: p.set}, err
		}
		p.memo = &memo{assignment: res.Assignment, stats: res.Stats}
		out := solveResult(p)
		out.CacheHit = false
		out.Assignment = FormatAssignment(p.set, res.Assignment)
		return out, nil
	}()
	if hit != nil {
		// Rendered outside the write lock, like a read-locked hit.
		out.fillHit(hit)
		c.count("catalog.cache_hits")
	}
	if compiled == nil || err != nil {
		return out, err
	}
	// A fresh solve runs outside the lock and leaves the memo alone.
	c.count("catalog.fresh_solves")
	res, err := core.SolveContext(ctx, compiled, c.coreOptions(opt))
	if err != nil {
		return out, err
	}
	out.Assignment, out.Stats = FormatAssignment(out.Set, res.Assignment), res.Stats
	return out, nil
}

// coreOptions builds the solver options of one Solve call.
func (c *Catalog) coreOptions(opt SolveOptions) core.Options {
	o := core.Options{Metrics: c.opt.Metrics, Fault: c.opt.Fault, CollectLatticeOps: opt.LatticeOps}
	if opt.Capture != nil {
		o.Sink = opt.Capture.CaptureSink()
	}
	return o
}

// solveResult snapshots the policy's identity, set and memo, a cache hit
// when there is one; caller holds at least the shard's read lock. The hit's
// shared answer is filled in by fillHit after the lock is released.
func solveResult(p *policy) SolveResult {
	res := SolveResult{Info: p.info(), Set: p.set}
	if m := p.memo; m != nil {
		res.Stats, res.CacheHit, res.Memo = m.stats, true, m.assignment
	}
	return res
}

// fillHit sets a cache hit's assignment and rendered answer from m, the
// memo read together with res under the shard lock. The assignment map is
// built per call rather than kept with the body: it costs a few
// allocations whatever the attribute count, while keeping it would hold a
// map per warm version in memory.
func (res *SolveResult) fillHit(m *memo) {
	h := m.rendered(res.Info.Name, res.Info.Version, res.Set)
	res.Assignment, res.Body, res.ETag = FormatAssignment(res.Set, m.assignment), h.body, h.etag
}

// FormatAssignment renders an assignment over set as attribute name →
// formatted level name.
func FormatAssignment(set *constraint.Set, m constraint.Assignment) map[string]string {
	lat := set.Lattice()
	out := make(map[string]string, set.NumAttrs())
	for _, a := range set.Attrs() {
		out[set.AttrName(a)] = lat.FormatLevel(m[a])
	}
	return out
}
