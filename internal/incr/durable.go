package incr

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/matrix"
	"repro/internal/rdf"
	"repro/internal/rules"
	"repro/internal/term"
)

// This file is the engine half of the durability contract with
// internal/wal: a batch hook that taps every effective mutation under
// the shard lock (the write-ahead-log feed), and checkpoint
// export/restore that moves a shard's full state — triples, column
// space, Σ-count and pair aggregates, signature view, epoch — across a
// process restart. The engine stays storage-agnostic: it never touches
// a file; wal serializes what these APIs expose.

// BatchHook observes one effective batch (added > 0 or removed > 0). It
// is invoked synchronously under the dataset's write lock, immediately
// after the epoch advanced, with the raw batch as applied — so hook
// invocation order is exactly epoch order, the property a write-ahead
// log needs. epoch is the post-batch epoch.
//
// The slices are only valid for the duration of the call (callers reuse
// batch buffers); a hook must copy or serialize them before returning,
// and must be fast — it runs inside the ingest critical section.
//
// The raw batch may contain no-op entries (re-added present triples,
// removes of absent ones). Re-applying the same batch sequence to a
// dataset restored to the same prior state reproduces the exact same
// effective operations and epoch, so logging raw batches is
// replay-exact.
type BatchHook func(add, remove []rdf.IDTriple, epoch uint64)

// SetBatchHook installs the batch hook (nil uninstalls). It must be set
// before ingestion that needs logging begins; batches applied while no
// hook is installed are not observed.
func (d *Dataset) SetBatchHook(h BatchHook) {
	d.mu.Lock()
	d.hook = h
	d.mu.Unlock()
}

// SetBatchHook installs a per-shard batch hook: make is called once per
// shard index so each shard logs to its own stream. Epochs passed to
// the hooks are per-shard epochs.
func (s *Sharded) SetBatchHook(h func(shard int, add, remove []rdf.IDTriple, epoch uint64)) {
	for i, d := range s.shards {
		if h == nil {
			d.SetBatchHook(nil)
			continue
		}
		i := i
		d.SetBatchHook(func(add, remove []rdf.IDTriple, epoch uint64) { h(i, add, remove, epoch) })
	}
}

// Shards exposes the per-shard datasets in shard index order — the
// handles the durability layer needs to checkpoint and recover each
// shard (WAL records replay through ApplyIDs on the owning shard).
// Routing new triples must go through the Sharded surface, which
// preserves subject-hash placement; callers of Shards must only apply
// operations already attributed to a shard (recovery replay) or read.
// A single-Dataset engine is its own one-element "shard list".
func (s *Sharded) Shards() []*Dataset { return s.shards }

// CheckpointState is a consistent copy of one shard's full state at an
// epoch, exported under the shard lock. Triples are the authoritative
// payload — restore replays them through the normal ingestion path —
// while the aggregates (tracker, pairs, view) are integrity pins: a
// restore that does not rebuild bit-identical aggregates fails loudly,
// catching corrupted checkpoints and cross-version drift in the
// incremental maintenance logic before the engine can serve wrong σ.
type CheckpointState struct {
	Epoch   uint64
	Added   uint64
	Removed uint64
	// PropIDs is the append-only column space in column order (retired
	// columns included), as dictionary IDs.
	PropIDs []term.ID
	// Triples is the live triple set in graph insertion order.
	Triples []rdf.IDTriple
	// Tracker is the Σ-count state (N_p, |S|, 1-entries).
	Tracker *rules.CountTracker
	// Pairs is the pairwise co-occurrence state; nil when pair tracking
	// is disabled (Options.DisablePairCounts).
	Pairs *rules.PairTracker
	// View is the signature view at Epoch (the snapshot the engine
	// would serve), canonical per matrix.View.AppendBinary.
	View *matrix.View
}

// ExportCheckpoint copies the dataset's state under a read lock. The
// returned state shares nothing mutable with the live dataset except
// the immutable snapshot view.
func (d *Dataset) ExportCheckpoint() *CheckpointState {
	d.mu.RLock()
	defer d.mu.RUnlock()
	triples := make([]rdf.IDTriple, 0, d.g.Len())
	d.g.EachTripleID(func(it rdf.IDTriple) { triples = append(triples, it) })
	st := &CheckpointState{
		Epoch:   d.epoch,
		Added:   d.added,
		Removed: d.removed,
		PropIDs: slices.Clone(d.propIDs),
		Triples: triples,
		Tracker: d.tracker.Clone(),
		View:    d.snapshotLocked().View,
	}
	if d.pairs != nil {
		st.Pairs = d.pairs.Clone()
	}
	return st
}

// RestoreCheckpoint loads an exported state into an empty dataset whose
// dictionary already resolves every referenced ID (the dictionary log
// replays first). The column space is pre-seeded in checkpoint order,
// the triples replay through the normal per-triple ingestion path, and
// the rebuilt aggregates are then verified bit-identical to the
// checkpointed ones — any mismatch is a hard error, never a silently
// drifted engine. On success the dataset is at the checkpoint's epoch
// with its snapshot cache pre-warmed.
func (d *Dataset) RestoreCheckpoint(st *CheckpointState) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.epoch != 0 || d.g.Len() != 0 || len(d.props) != 0 {
		return fmt.Errorf("incr: restore into non-empty dataset (epoch %d, %d triples)", d.epoch, d.g.Len())
	}
	if (d.pairs == nil) != (st.Pairs == nil) {
		return fmt.Errorf("incr: restore pair-tracking mismatch (engine %v, checkpoint %v)",
			d.pairs != nil, st.Pairs != nil)
	}
	dict := d.g.Dict()
	dictLen := term.ID(dict.Len())

	// Pre-seed the column space so replayed triples land on the same
	// column indices the checkpointed aggregates use.
	for i, id := range st.PropIDs {
		if id >= dictLen {
			return fmt.Errorf("incr: restore: property column %d has ID %d past dictionary (%d terms)", i, id, dictLen)
		}
		if _, dup := d.propIndex[id]; dup {
			return fmt.Errorf("incr: restore: duplicate property column ID %d", id)
		}
		d.props = append(d.props, dict.String(id))
		d.propIDs = append(d.propIDs, id)
		d.propIndex[id] = i
	}
	d.tracker.Grow(len(d.props))
	if d.pairs != nil {
		d.pairs.Grow(len(d.props))
	}

	for i, it := range st.Triples {
		if it.S >= dictLen || it.P >= dictLen || it.O >= dictLen {
			return fmt.Errorf("incr: restore: triple %d references ID past dictionary (%d terms)", i, dictLen)
		}
		if it.OKind > rdf.Literal {
			return fmt.Errorf("incr: restore: triple %d has bad object kind %d", i, it.OKind)
		}
		if !d.applyAdd(it) {
			return fmt.Errorf("incr: restore: duplicate triple %d in checkpoint", i)
		}
	}
	if len(d.props) != len(st.PropIDs) {
		return fmt.Errorf("incr: restore: replay grew %d columns past the checkpoint's %d",
			len(d.props), len(st.PropIDs))
	}

	// Integrity pins: the replayed aggregates must be bit-identical to
	// the checkpointed ones.
	if !d.tracker.Equal(st.Tracker) {
		return fmt.Errorf("incr: restore: replayed Σ-counts diverge from checkpoint")
	}
	if d.pairs != nil && !d.pairs.Equal(st.Pairs) {
		return fmt.Errorf("incr: restore: replayed pair counts diverge from checkpoint")
	}
	view := d.buildView()
	if !bytes.Equal(view.AppendBinary(nil), st.View.AppendBinary(nil)) {
		return fmt.Errorf("incr: restore: replayed signature view diverges from checkpoint")
	}

	d.epoch = st.Epoch
	d.added = st.Added
	d.removed = st.Removed
	d.snap.Store(&Snapshot{Epoch: st.Epoch, View: view})
	return nil
}
