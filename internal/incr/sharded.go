package incr

import (
	"context"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/rdf"
	"repro/internal/rules"
	"repro/internal/term"
)

// Engine is the live-dataset surface shared by the single Dataset and
// the sharded engine: triple ingestion, live σ reads and consistent
// snapshots. internal/serve and the Refiner program against it, so a
// service picks its parallelism by constructor (NewDataset vs
// NewSharded) without touching the read or refinement paths.
type Engine interface {
	Apply(add, remove []rdf.Triple) (added, removed int)
	ApplyIDs(add, remove []rdf.IDTriple) (added, removed int)
	AddStream(batchSize int, read func(emit func(rdf.Triple) error) error) (added int, err error)
	AddStreamIDs(batchSize int, read func(emit func(rdf.IDTriple) error) error) (added int, err error)
	AddNTriples(r io.Reader, batchSize int) (added int, err error)
	// AddNTriplesCtx is AddNTriples bounded by ctx: the decode loop
	// checks the context periodically and stops with ctx.Err() mid-
	// stream (triples already applied stay applied and are reflected in
	// added) — how the serving tier propagates request deadlines into a
	// streaming ingest.
	AddNTriplesCtx(ctx context.Context, r io.Reader, batchSize int) (added int, err error)
	Dict() *term.Dict
	Snapshot() *Snapshot
	Sigma(fn rules.CountsFunc) rules.Ratio
	SigmaCov() rules.Ratio
	SigmaSim() rules.Ratio
	SigmaPairs(fn rules.PairCountsFunc) (rules.Ratio, bool)
	PairsTracked() bool
	Stats() Stats
	// SigmaStats evaluates fn against the live aggregates and returns it
	// with the statistics of the same epoch — one read cut, so the two
	// can never straddle a write. live is false when fn has no live
	// evaluation (neither a counts nor a pair-counts measure, or pair
	// tracking is disabled); st is valid either way and the caller
	// evaluates fn against a Snapshot instead.
	SigmaStats(fn rules.Func) (ratio rules.Ratio, st Stats, live bool)
	// ViewStorage reports the signature-storage breakdown of the
	// engine's current snapshot (dense vs compressed container counts,
	// estimated bytes) plus the live pair-tracker footprint — the
	// observability surface behind /stats and the rdf_view_bytes gauge.
	ViewStorage() ViewStorage
	Epoch() uint64
	Contains(t rdf.Triple) bool
	// RegisterMetrics registers the engine's ingest instrumentation
	// (per-shard triple counters, batch-size histograms, epoch and
	// signature gauges) into reg and installs the taps. At most once
	// per registry.
	RegisterMetrics(reg *metrics.Registry)
}

var (
	_ Engine = (*Dataset)(nil)
	_ Engine = (*Sharded)(nil)
)

// Sharded is a live dataset partitioned into N subject-hash shards,
// each a full Dataset (own mutex, signature sets, count and pair
// trackers) over one shared term dictionary. Batches touching
// different subjects land on different shards and proceed in parallel
// with zero lock contention — the ingest scalability the single
// Dataset's writer mutex caps at one core.
//
// Sharding by subject preserves the paper's semantics exactly: a
// subject's signature is a function of its own triples alone, so every
// signature, every N_p increment, every C[p1][p2] pair and every |S|
// unit lives wholly in one shard, and the cross-shard aggregates are
// plain sums (rules.CountTracker.Merge / PairTracker.Merge) while
// merged snapshots are signature-level unions (matrix.MergeViews) —
// bit-identical to a single Dataset fed the same stream.
//
// With one shard every method delegates directly to the inner Dataset:
// single-shard mode is the exact unsharded code path.
type Sharded struct {
	dict   *term.Dict
	opts   Options
	shards []*Dataset
	// snap caches the merged snapshot keyed by the composite epoch (the
	// sum of per-shard epochs — strictly increasing per mutating batch,
	// since shard epochs never decrease).
	snap atomic.Pointer[Snapshot]
	// cut caches the merged read cut the same way, for the reads that
	// need no snapshot (σ, stats, aggregate export).
	cut atomic.Pointer[readCut]
	// met counts cut builds and reuses (nil until RegisterMetrics).
	met atomic.Pointer[cutMetrics]
}

// NewSharded returns an empty sharded dataset with n subject-hash
// shards (n < 1 is treated as 1) sharing one term dictionary.
func NewSharded(n int, opts Options) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{dict: term.NewDict(), opts: opts, shards: make([]*Dataset, n)}
	for i := range s.shards {
		s.shards[i] = NewDatasetWithDict(s.dict, opts)
	}
	return s
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Dict returns the shared term dictionary. Interning is safe
// concurrently with ingestion on any shard.
func (s *Sharded) Dict() *term.Dict { return s.dict }

// shardOf routes a subject to its shard: a 32-bit integer mix of the
// interned subject ID modulo the shard count. Any deterministic
// function of the subject alone preserves exactness (the merge is
// additive over any subject-disjoint partition); the mix just spreads
// the dense first-sight IDs evenly.
func (s *Sharded) shardOf(subj term.ID) int {
	x := uint32(subj)
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return int(x % uint32(len(s.shards)))
}

// internTriple interns t's terms into the shared dictionary.
func (s *Sharded) internTriple(t rdf.Triple) rdf.IDTriple {
	return rdf.IDTriple{
		S:     s.dict.Intern(t.Subject),
		P:     s.dict.Intern(t.Predicate),
		O:     s.dict.Intern(t.Object.Value),
		OKind: t.Object.Kind,
	}
}

// lookupTriple resolves t without growing the dictionary (the remove
// path: a triple with never-seen terms cannot be present anywhere).
func (s *Sharded) lookupTriple(t rdf.Triple) (it rdf.IDTriple, ok bool) {
	if it.S, ok = s.dict.Lookup(t.Subject); !ok {
		return rdf.IDTriple{}, false
	}
	if it.P, ok = s.dict.Lookup(t.Predicate); !ok {
		return rdf.IDTriple{}, false
	}
	if it.O, ok = s.dict.Lookup(t.Object.Value); !ok {
		return rdf.IDTriple{}, false
	}
	it.OKind = t.Object.Kind
	return it, true
}

// Apply partitions the batch by subject shard and applies the per-shard
// sub-batches concurrently, one goroutine per touched shard. Dataset
// batch semantics hold per shard (adds first, then removes, each
// deduplicated); since a triple's shard is a function of its subject,
// the interleaving across shards cannot reorder operations on the same
// triple.
func (s *Sharded) Apply(add, remove []rdf.Triple) (added, removed int) {
	if len(s.shards) == 1 {
		return s.shards[0].Apply(add, remove)
	}
	addB := make([][]rdf.IDTriple, len(s.shards))
	remB := make([][]rdf.IDTriple, len(s.shards))
	for _, t := range add {
		it := s.internTriple(t)
		sh := s.shardOf(it.S)
		addB[sh] = append(addB[sh], it)
	}
	for _, t := range remove {
		if it, ok := s.lookupTriple(t); ok {
			sh := s.shardOf(it.S)
			remB[sh] = append(remB[sh], it)
		}
	}
	return s.applyShards(addB, remB)
}

// ApplyIDs is Apply over pre-interned triples (IDs must come from this
// engine's dictionary).
func (s *Sharded) ApplyIDs(add, remove []rdf.IDTriple) (added, removed int) {
	if len(s.shards) == 1 {
		return s.shards[0].ApplyIDs(add, remove)
	}
	addB := make([][]rdf.IDTriple, len(s.shards))
	remB := make([][]rdf.IDTriple, len(s.shards))
	for _, it := range add {
		sh := s.shardOf(it.S)
		addB[sh] = append(addB[sh], it)
	}
	for _, it := range remove {
		sh := s.shardOf(it.S)
		remB[sh] = append(remB[sh], it)
	}
	return s.applyShards(addB, remB)
}

// applyShards runs the partitioned batches, in parallel when more than
// one shard is touched.
func (s *Sharded) applyShards(addB, remB [][]rdf.IDTriple) (added, removed int) {
	addN := make([]int, len(s.shards))
	remN := make([]int, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		if len(addB[i]) == 0 && len(remB[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			addN[i], remN[i] = s.shards[i].ApplyIDs(addB[i], remB[i])
		}(i)
	}
	wg.Wait()
	for i := range s.shards {
		added += addN[i]
		removed += remN[i]
	}
	return added, removed
}

// AddStream applies triples from a streaming reader through the
// per-shard ingest worker pool (see AddStreamIDs), interning at the
// routing edge.
func (s *Sharded) AddStream(batchSize int, read func(emit func(rdf.Triple) error) error) (added int, err error) {
	if len(s.shards) == 1 {
		return s.shards[0].AddStream(batchSize, read)
	}
	return s.AddStreamIDs(batchSize, func(emit func(rdf.IDTriple) error) error {
		return read(func(t rdf.Triple) error { return emit(s.internTriple(t)) })
	})
}

// AddStreamIDs streams interned triples through a per-shard ingest
// worker pool: the reader routes each triple to its subject's shard
// batch, and one worker goroutine per shard applies full batches while
// the reader keeps decoding — so a single parse pass feeds N shards
// mutating concurrently. batchSize bounds each shard's in-flight batch
// (default 10000 per shard). On a read error, triples emitted before
// it remain applied and are reflected in added.
func (s *Sharded) AddStreamIDs(batchSize int, read func(emit func(rdf.IDTriple) error) error) (added int, err error) {
	if len(s.shards) == 1 {
		return s.shards[0].AddStreamIDs(batchSize, read)
	}
	if batchSize <= 0 {
		batchSize = 10000
	}
	chans := make([]chan []rdf.IDTriple, len(s.shards))
	counts := make([]int, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		chans[i] = make(chan []rdf.IDTriple, 2)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for batch := range chans[i] {
				a, _ := s.shards[i].ApplyIDs(batch, nil)
				counts[i] += a
			}
		}(i)
	}
	batches := make([][]rdf.IDTriple, len(s.shards))
	err = read(func(it rdf.IDTriple) error {
		sh := s.shardOf(it.S)
		b := append(batches[sh], it)
		if len(b) >= batchSize {
			chans[sh] <- b
			b = nil // the worker owns the sent batch; start a fresh one
		}
		batches[sh] = b
		return nil
	})
	for i, b := range batches {
		if len(b) > 0 {
			chans[i] <- b
		}
		close(chans[i])
	}
	wg.Wait()
	for _, c := range counts {
		added += c
	}
	return added, err
}

// AddNTriples streams an N-Triples document through the interning
// decoder into the shard worker pool — the rdfserved raw-body ingest
// path.
func (s *Sharded) AddNTriples(r io.Reader, batchSize int) (added int, err error) {
	return s.AddStreamIDs(batchSize, func(emit func(rdf.IDTriple) error) error {
		return rdf.ReadNTriplesIDs(r, s.dict, emit)
	})
}

// AddNTriplesCtx is AddNTriples bounded by ctx (see Engine).
func (s *Sharded) AddNTriplesCtx(ctx context.Context, r io.Reader, batchSize int) (added int, err error) {
	return s.AddStreamIDs(batchSize, func(emit func(rdf.IDTriple) error) error {
		return rdf.ReadNTriplesIDs(r, s.dict, ctxEmit(ctx, emit))
	})
}

// rlockAll takes every shard's read lock in index order, establishing
// an atomic cut across shards for merged reads. The fixed order plus
// single-shard writers (Apply workers hold one shard lock each, never
// two) makes this deadlock-free.
func (s *Sharded) rlockAll() {
	for _, d := range s.shards {
		d.mu.RLock()
	}
}

func (s *Sharded) runlockAll() {
	for _, d := range s.shards {
		d.mu.RUnlock()
	}
}

// Epoch returns the composite epoch: the sum of per-shard epochs.
// Shard epochs never decrease, so the composite strictly increases
// with every effective mutation anywhere.
func (s *Sharded) Epoch() uint64 {
	if len(s.shards) == 1 {
		return s.shards[0].Epoch()
	}
	s.rlockAll()
	defer s.runlockAll()
	var sum uint64
	for _, d := range s.shards {
		sum += d.epoch
	}
	return sum
}

// Snapshot returns the merged immutable view of the current composite
// epoch: per-shard snapshots (each cached per shard epoch) taken under
// an all-shard read cut, merged with matrix.MergeViews — bit-identical
// to matrix.FromGraph on the union triple set. The merged snapshot is
// cached per composite epoch, so repeated reads between mutations cost
// one pointer load, and a mutation on one shard rebuilds only that
// shard's view plus the merge.
func (s *Sharded) Snapshot() *Snapshot {
	if len(s.shards) == 1 {
		return s.shards[0].Snapshot()
	}
	s.rlockAll()
	var composite uint64
	views := make([]*matrix.View, len(s.shards))
	for i, d := range s.shards {
		composite += d.epoch
		views[i] = d.snapshotLocked().View
	}
	s.runlockAll()
	// The per-shard views are immutable; the cut is fixed, so the merge
	// can run outside the locks.
	if cached := s.snap.Load(); cached != nil && cached.Epoch == composite {
		return cached
	}
	v, err := matrix.MergeViews(views...)
	if err != nil {
		// Unreachable: shard snapshots share Options, so subject lists
		// are uniformly present or absent and patterns are well-formed.
		panic("incr: sharded snapshot merge: " + err.Error())
	}
	snap := &Snapshot{Epoch: composite, View: v}
	// Publish only if it advances the cache: a slow merge racing a
	// newer reader must not evict the newer epoch's snapshot (the older
	// result is still returned to its caller — its cut is consistent).
	for {
		cached := s.snap.Load()
		if cached != nil && cached.Epoch >= composite {
			return snap
		}
		if s.snap.CompareAndSwap(cached, snap) {
			return snap
		}
	}
}

// Sigma evaluates a counts-based measure (σCov, σSim) against the
// merged counts of the current epoch's read cut: O(|P|) per read, after
// one O(shards·|P|) union of the column space per epoch. No snapshot
// build.
func (s *Sharded) Sigma(fn rules.CountsFunc) rules.Ratio {
	if len(s.shards) == 1 {
		return s.shards[0].Sigma(fn)
	}
	s.rlockAll()
	c := s.countsLocked(s.cutLocked())
	s.runlockAll()
	return c.tracker.Eval(fn)
}

// SigmaCov returns σCov of the merged live dataset.
func (s *Sharded) SigmaCov() rules.Ratio { return s.Sigma(rules.CovFunc().(rules.CountsFunc)) }

// SigmaSim returns σSim of the merged live dataset.
func (s *Sharded) SigmaSim() rules.Ratio { return s.Sigma(rules.SimFunc().(rules.CountsFunc)) }

// shardedPairs answers pair-count reads by summing the demanded entry
// across the shards' live PairTrackers through the cut's column maps —
// O(shards) per Both, so a fixed-demand measure (σDep/σSymDep/σDepDisj,
// pinned compiled rules) reads in O(shards) total without materializing
// the merged |P|² matrix. Valid only under all shard locks at the
// cut's epoch.
type shardedPairs struct {
	s *Sharded
	c *readCut
}

func (m shardedPairs) Column(p string) (int, bool) {
	id, ok := m.s.dict.Lookup(p)
	if !ok {
		return 0, false
	}
	i, ok := m.c.col[id]
	return i, ok
}

func (m shardedPairs) Both(i, j int) int64 {
	var tot int64
	for si, d := range m.s.shards {
		ci, cj := m.c.toLocal[si][i], m.c.toLocal[si][j]
		if ci >= 0 && cj >= 0 {
			tot += d.pairs.Both(ci, cj)
		}
	}
	return tot
}

// trackerPairs adapts a materialized merged PairTracker to the
// name-keyed read interface.
type trackerPairs struct {
	t       *rules.PairTracker
	nameIdx map[string]int
}

func (m trackerPairs) Column(p string) (int, bool) {
	i, ok := m.nameIdx[p]
	return i, ok
}

func (m trackerPairs) Both(i, j int) int64 { return m.t.Both(i, j) }

// sigmaPairsLocked evaluates fn against c's counts and the shards' live
// pair trackers. Measures declaring fixed pair demands
// (rules.PairDemands — the dependency measures and pinned compiled
// rules) read each demanded entry as an O(shards) sum; a measure that
// may read arbitrary pairs gets a merged PairTracker materialized via
// rules.PairTracker.Merge (O(shards·|P|²), amortized by the read
// pattern that forced it). Returns ok = false when pair tracking is
// disabled. Caller holds all shard read locks at c.epoch — the live
// trackers are only this epoch's while the locks are held.
func (s *Sharded) sigmaPairsLocked(c *readCut, fn rules.PairCountsFunc) (rules.Ratio, bool) {
	if s.opts.DisablePairCounts {
		return rules.Ratio{}, false
	}
	s.countsLocked(c)
	if pd, ok := fn.(rules.PairDemands); ok && pd.NeededPairs() != nil {
		return fn.EvalPairCounts(c.tracker.Counts(), shardedPairs{s, c}, c.tracker.Subjects()), true
	}
	return s.exportLocked(c).SigmaPairs(fn)
}

// SigmaPairs evaluates a pair-counts measure against the merged live
// aggregates of the current epoch, no snapshot build (see
// sigmaPairsLocked for the cost). Returns ok = false when pair tracking
// is disabled (Options.DisablePairCounts); callers then evaluate
// against a Snapshot instead.
func (s *Sharded) SigmaPairs(fn rules.PairCountsFunc) (rules.Ratio, bool) {
	if len(s.shards) == 1 {
		return s.shards[0].SigmaPairs(fn)
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.sigmaPairsLocked(s.cutLocked(), fn)
}

// SigmaStats evaluates fn and reads the merged statistics under one
// read cut (see Engine).
func (s *Sharded) SigmaStats(fn rules.Func) (ratio rules.Ratio, st Stats, live bool) {
	if len(s.shards) == 1 {
		return s.shards[0].SigmaStats(fn)
	}
	s.rlockAll()
	defer s.runlockAll()
	c := s.cutLocked()
	st = s.statsLocked(c)
	switch f := fn.(type) {
	case rules.CountsFunc:
		return s.countsLocked(c).tracker.Eval(f), st, true
	case rules.PairCountsFunc:
		ratio, live = s.sigmaPairsLocked(c, f)
	}
	return ratio, st, live
}

// PairsTracked reports whether the live pair-count tracker is on (the
// shards share Options, so it is uniform across them).
func (s *Sharded) PairsTracked() bool { return s.shards[0].PairsTracked() }

// Stats returns the merged statistics of the current epoch's read cut
// (see statsLocked): computed once per epoch, then a copy per read.
func (s *Sharded) Stats() Stats {
	if len(s.shards) == 1 {
		return s.shards[0].Stats()
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.statsLocked(s.cutLocked())
}

// ShardStats returns per-shard statistics under one all-shard read
// cut, in shard index order. Terms is zeroed in the breakdown: the
// dictionary is shared, so per-shard term counts neither exist nor
// sum — read the merged Stats for the global count.
func (s *Sharded) ShardStats() []Stats {
	s.rlockAll()
	defer s.runlockAll()
	return s.shardStatsLocked()
}

// shardStatsLocked computes the per-shard breakdown. Caller holds all
// shard locks.
func (s *Sharded) shardStatsLocked() []Stats {
	out := make([]Stats, len(s.shards))
	for i, d := range s.shards {
		out[i] = d.statsLocked()
		out[i].Terms = 0
	}
	return out
}

// StatsWithShards returns the merged statistics and the per-shard
// breakdown under one all-shard read cut, so the breakdown always sums
// to the merged totals even while writers are landing.
func (s *Sharded) StatsWithShards() (Stats, []Stats) {
	s.rlockAll()
	defer s.runlockAll()
	if len(s.shards) == 1 {
		st := s.shards[0].statsLocked()
		return st, s.shardStatsLocked()
	}
	return s.statsLocked(s.cutLocked()), s.shardStatsLocked()
}

// ViewStorage returns the summed per-shard storage breakdown (each
// shard's snapshot is cached per shard epoch). The per-shard sum
// slightly overcounts the merged view — signatures split across shards
// are counted once per shard — which is the honest accounting: those
// containers all exist while serving.
func (s *Sharded) ViewStorage() ViewStorage {
	if len(s.shards) == 1 {
		return s.shards[0].ViewStorage()
	}
	var vs ViewStorage
	for _, d := range s.shards {
		vs.merge(d.ViewStorage())
	}
	return vs
}

// Contains reports whether the triple is currently in the dataset (a
// single-shard probe — the triple can only live on its subject's
// shard).
func (s *Sharded) Contains(t rdf.Triple) bool {
	id, ok := s.dict.Lookup(t.Subject)
	if !ok {
		return false
	}
	return s.shards[s.shardOf(id)].Contains(t)
}
