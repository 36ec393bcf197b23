package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
)

// This file is the catalog's follower-apply surface: what the cluster
// replication layer (internal/cluster) needs to mirror a leader's per-shard
// WAL onto a replica. A follower applies each replicated record exactly the
// way the live mutation path does — durable store append first, in-memory
// install second, refresh pipeline warm-up third — so two catalogs that
// applied the same record sequence hold byte-identical WALs and equal
// Fingerprints. Lagging or new followers skip the record stream entirely
// and install a whole-shard snapshot (InstallShardSnapshot), the same bytes
// compaction writes to catalog-<i>.snap.

// ErrOutOfOrder reports a replicated record whose sequence number is not
// exactly the shard's next: a gap means the follower missed frames and must
// snapshot-resync; a duplicate means the frame was already applied.
var ErrOutOfOrder = errors.New("catalog: record out of sequence")

// Shards returns the catalog's shard count (pinned by the data directory's
// meta file for durable catalogs). Replication streams are per shard, so
// leader and follower counts must match.
func (c *Catalog) Shards() int { return len(c.shards) }

// ShardOf returns the shard index policy name hashes to.
func (c *Catalog) ShardOf(name string) int { return c.shardFor(name).id }

// ShardSeq returns shard i's last durably logged (or applied) sequence
// number.
func (c *Catalog) ShardSeq(i int) uint64 {
	s := c.shards[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// ShardSeqs returns every shard's last sequence number, indexed by shard.
func (c *Catalog) ShardSeqs() []uint64 {
	out := make([]uint64, len(c.shards))
	for i := range c.shards {
		out[i] = c.ShardSeq(i)
	}
	return out
}

// ApplyRecord applies one replicated WAL record payload to shard shardID,
// returning the shard's sequence number afterwards. The payload must be the
// leader's exact record bytes (seq and all); it is validated, appended
// durably to the shard's own store, applied in memory, and handed to the
// refresh pipeline — the same WAL-first ordering as a live mutation, minus
// the precondition checks the leader already enforced. A record that is not
// exactly the shard's next sequence number returns ErrOutOfOrder and
// changes nothing.
func (c *Catalog) ApplyRecord(shardID int, payload []byte) (uint64, error) {
	if shardID < 0 || shardID >= len(c.shards) {
		return 0, fmt.Errorf("catalog: apply: no shard %d", shardID)
	}
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return 0, fmt.Errorf("catalog: apply: decoding record: %w", err)
	}
	s := c.shards[shardID]

	var job refreshJob
	var ev MutationEvent
	var seq uint64
	err := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return ErrClosed
		}
		seq = s.seq
		if rec.Seq != s.seq+1 {
			return fmt.Errorf("%w: shard %d at seq %d got record seq %d", ErrOutOfOrder, shardID, s.seq, rec.Seq)
		}
		switch rec.Op {
		case "put":
			staged, err := buildPolicy(rec.Name, rec.Lattice, rec.Constraints)
			if err != nil {
				return fmt.Errorf("catalog: replicated put: %w", err)
			}
			if err := c.appendReplicated(s, rec.Seq, payload); err != nil {
				return err
			}
			staged.shard = s.id
			if old := s.pol[rec.Name]; old != nil {
				staged.version = old.version + 1
			} else {
				staged.version = 1
				c.policies.Add(1)
			}
			s.pol[rec.Name] = staged
			job = refreshJob{shard: s, pol: staged, name: rec.Name, version: staged.version, lat: staged.lat, set: staged.set}
			ev = MutationEvent{Op: "put", Name: rec.Name, Version: staged.version, Shard: s.id, Seq: rec.Seq}
		case "append":
			p := s.pol[rec.Name]
			if p == nil {
				return fmt.Errorf("catalog: replicated append: %w: %q", ErrNotFound, rec.Name)
			}
			ns := p.set.Clone()
			if err := ns.ParseString(rec.Constraints); err != nil {
				return fmt.Errorf("catalog: replicated append %q: %w", rec.Name, err)
			}
			base, baseCount := p.memo.solution(), len(p.set.Constraints())
			if err := c.appendReplicated(s, rec.Seq, payload); err != nil {
				return err
			}
			p.set = ns
			p.consTexts = append(p.consTexts, rec.Constraints)
			p.version++
			p.compiled = nil
			p.memo = nil
			job = refreshJob{shard: s, pol: p, name: rec.Name, version: p.version, lat: p.lat, set: ns, base: base, baseCount: baseCount}
			ev = MutationEvent{Op: "append", Name: rec.Name, Version: p.version, Shard: s.id, Seq: rec.Seq}
		case "delete":
			if s.pol[rec.Name] == nil {
				return fmt.Errorf("catalog: replicated delete: %w: %q", ErrNotFound, rec.Name)
			}
			if err := c.appendReplicated(s, rec.Seq, payload); err != nil {
				return err
			}
			delete(s.pol, rec.Name)
			c.policies.Add(-1)
			ev = MutationEvent{Op: "delete", Name: rec.Name, Shard: s.id, Seq: rec.Seq}
		default:
			return fmt.Errorf("catalog: replicated record: unknown op %q", rec.Op)
		}
		seq = s.seq
		c.count("catalog.replica.applied")
		c.shardGauge(s)
		c.maybeCompact(s)
		return nil
	}()
	if err != nil {
		return seq, err
	}

	c.bus.Publish(TopicMutations, ev)
	if job.pol != nil {
		c.enqueueRefresh(job)
	}
	return seq, nil
}

// appendReplicated durably appends a replicated record and advances the
// shard's bookkeeping; called under the shard's write lock with the seq
// contiguity already checked.
func (c *Catalog) appendReplicated(s *shard, seq uint64, payload []byte) error {
	if err := s.store.Append(payload); err != nil {
		return fmt.Errorf("%w: %w", ErrStorage, err)
	}
	s.seq = seq
	s.sinceSnap++
	if c.opt.OnRecord != nil {
		c.opt.OnRecord(RecordEvent{Shard: s.id, Seq: seq, Payload: payload})
	}
	return nil
}

// ShardSnapshot serializes shard i's live state in the exact format of its
// compacted snapshot file (catalog-<i>.snap), plus the sequence number it
// covers — what a leader ships to a lagging or new follower.
func (c *Catalog) ShardSnapshot(i int) (data []byte, seq uint64, err error) {
	if i < 0 || i >= len(c.shards) {
		return nil, 0, fmt.Errorf("catalog: snapshot: no shard %d", i)
	}
	s := c.shards[i]
	s.mu.RLock()
	pols := make([]snapshotPolicy, 0, len(s.pol))
	for _, p := range s.pol {
		pols = append(pols, snapshotPolicyOf(p))
	}
	seq = s.seq
	s.mu.RUnlock()
	data, err = encodeSnapshot(seq, pols)
	return data, seq, err
}

// InstallShardSnapshot replaces shard i's entire state with a shipped
// snapshot: the data is fully decoded and validated first (a failure —
// ErrSnapshotCorrupt — leaves the shard untouched), then durably compacted
// into the shard's store and swapped into memory. Every installed policy is
// handed to the refresh pipeline so the replica's memoized solves re-warm.
func (c *Catalog) InstallShardSnapshot(i int, data []byte) error {
	if i < 0 || i >= len(c.shards) {
		return fmt.Errorf("catalog: install: no shard %d", i)
	}
	// Stage into a scratch shard: loadSnapshot validates and builds every
	// policy before the live shard is touched.
	tmp := &shard{id: i, pol: make(map[string]*policy)}
	if err := tmp.loadSnapshot(data); err != nil {
		c.count("catalog.snapshot_corrupt")
		return err
	}
	s := c.shards[i]
	var jobs []refreshJob
	err := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return ErrClosed
		}
		if err := s.store.Compact(data); err != nil {
			return fmt.Errorf("%w: %w", ErrStorage, err)
		}
		c.policies.Add(int64(len(tmp.pol) - len(s.pol)))
		s.pol = tmp.pol
		s.seq = tmp.seq
		s.snapSeq = tmp.snapSeq
		s.sinceSnap = 0
		for _, p := range s.pol {
			jobs = append(jobs, refreshJob{shard: s, pol: p, name: p.name, version: p.version, lat: p.lat, set: p.set})
		}
		c.count("catalog.snapshot_installs")
		c.shardGauge(s)
		return nil
	}()
	if err != nil {
		return err
	}
	for _, job := range jobs {
		c.enqueueRefresh(job)
	}
	return nil
}
