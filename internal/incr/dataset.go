// Package incr is the incremental structuredness engine: it maintains
// the property-structure view M(D), the signature sets Λ(D) and the
// closed-form structuredness counts of a *mutable* RDF dataset as
// triples arrive and retract, instead of rebuilding them from scratch.
//
// The paper's pipeline is strictly batch — parse a dump, build the
// signature view, refine once. This package turns that pipeline into a
// live system: Apply ingests add/remove batches, migrating each touched
// subject between signature sets (creating and retiring signatures and
// property columns as needed) and updating the per-property subject
// counts N_p behind σCov and σSim in O(1) per property transition
// (rules.CountTracker). Readers obtain immutable matrix.View snapshots
// via copy-on-write epochs: a snapshot is built lazily from the
// signature-level state — O(|Λ|·|P|), independent of the subject count
// — cached per epoch, and never mutated afterwards, so the existing
// refinement engine runs unchanged against a consistent view while
// ingestion continues.
//
// All of the per-batch work runs on interned term IDs (internal/term):
// signature membership, subject migration and the σ count deltas key by
// TermID and column index, so a steady-state Apply hashes no strings at
// all — the only string work ever done is interning genuinely new
// terms at the parse edge and materializing names into snapshots.
package incr

import (
	"context"
	"encoding/binary"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/matrix"
	"repro/internal/rdf"
	"repro/internal/rules"
	"repro/internal/term"
)

// Options configures a Dataset. The zero value matches
// matrix.Options{}: rdf:type is excluded from the property columns.
type Options struct {
	// IgnoreProperties are predicate URIs excluded from the view's
	// columns (rdf:type always is).
	IgnoreProperties []string
	// KeepSubjects retains subject URIs per signature in snapshots
	// (needed to materialize partitions back into RDF graphs).
	KeepSubjects bool
	// DisablePairCounts turns off the live pairwise co-occurrence
	// tracker. By default the dataset maintains C[p1][p2] alongside N_p
	// — O(per-subject property count) extra work per column transition
	// and O(|P|²) memory — so σDep/σSymDep and compiled two-variable
	// rules read in O(1) via SigmaPairs. Disable it for datasets with
	// very many properties; pair-counts reads then fall back to
	// snapshot evaluation.
	DisablePairCounts bool
}

// sigState is one live signature set: the set of property columns and
// the subjects currently exhibiting it. Columns are indices into the
// dataset's append-only column space (which may contain retired,
// zero-count columns; a live sigState never references those).
type sigState struct {
	cols     []int // sorted ascending
	key      string
	subjects map[term.ID]struct{}
}

// Dataset is a mutable RDF dataset with incrementally-maintained
// signature sets and structuredness counts. All methods are safe for
// concurrent use: Apply serializes writers, readers work off immutable
// per-epoch snapshots or O(|P|) count reads.
type Dataset struct {
	mu   sync.RWMutex
	opts Options

	// ignore holds the interned IDs of excluded predicates. The IDs are
	// fixed at construction (the dictionary is append-only), so the
	// per-triple exclusion check is one integer map probe.
	ignore map[term.ID]bool
	g      *rdf.Graph

	// Append-only column space. Columns whose subject count drops to
	// zero are retired in place (snapshots skip them) and revived if the
	// property reappears.
	props     []string  // column names, materialized once at creation
	propIDs   []term.ID // column dictionary IDs, parallel to props
	propIndex map[term.ID]int

	tracker *rules.CountTracker
	// pairs delta-maintains the pairwise co-occurrence counts behind
	// the compiled two-variable evaluators (nil when disabled). It
	// lives in the same append-only column space as tracker.
	pairs *rules.PairTracker

	sigs    map[string]*sigState  // signature key -> state
	subjSig map[term.ID]*sigState // subject -> its signature set

	epoch   uint64
	snap    atomic.Pointer[Snapshot]
	sigKeys atomic.Pointer[sigKeySet]
	added   uint64
	removed uint64

	// hook, when set, observes every effective batch under mu — the
	// durability layer's write-ahead-log tap (see SetBatchHook).
	hook BatchHook

	// met, when set, is the shard's ingest instrumentation tap,
	// updated once per effective batch (see RegisterMetrics).
	met *shardMetrics
}

// Snapshot is an immutable view of the dataset at one epoch.
type Snapshot struct {
	// Epoch identifies the dataset state; it increases with every
	// mutating batch.
	Epoch uint64
	// View is the signature-compressed property-structure view,
	// bit-identical to matrix.FromGraph on the same triple set.
	View *matrix.View
}

// NewDataset returns an empty incremental dataset with its own term
// dictionary.
func NewDataset(opts Options) *Dataset { return NewDatasetWithDict(term.NewDict(), opts) }

// NewDatasetWithDict returns an empty incremental dataset interning
// into dict. Sharing one dictionary across datasets — the sharded
// engine's layout — makes their subject and property IDs directly
// comparable, so triples routed between them never re-intern.
func NewDatasetWithDict(dict *term.Dict, opts Options) *Dataset {
	g := rdf.NewGraphWithDict(dict)
	ignore := map[term.ID]bool{dict.Intern(rdf.TypeURI): true}
	for _, p := range opts.IgnoreProperties {
		ignore[dict.Intern(p)] = true
	}
	d := &Dataset{
		opts:      opts,
		ignore:    ignore,
		g:         g,
		propIndex: make(map[term.ID]int),
		tracker:   rules.NewCountTracker(0),
		sigs:      make(map[string]*sigState),
		subjSig:   make(map[term.ID]*sigState),
	}
	if !opts.DisablePairCounts {
		d.pairs = rules.NewPairTracker(0)
	}
	return d
}

// FromGraph builds an incremental dataset preloaded with g's triples.
func FromGraph(g *rdf.Graph, opts Options) *Dataset {
	d := NewDataset(opts)
	d.Apply(g.Triples(), nil)
	return d
}

// Dict returns the dataset's term dictionary (shared with its graph).
// Interning is safe concurrently with Apply.
func (d *Dataset) Dict() *term.Dict { return d.g.Dict() }

// AddStream applies triples produced by a streaming reader (e.g.
// rdf.ReadNTriples, rdf.ReadTurtle) in bounded batches of batchSize, so
// arbitrarily large dumps ingest without materializing a triple list.
// read is called with the emit callback to feed. On a read error, the
// triples emitted before it remain applied and are reflected in added.
func (d *Dataset) AddStream(batchSize int, read func(emit func(rdf.Triple) error) error) (added int, err error) {
	if batchSize <= 0 {
		batchSize = 10000
	}
	batch := make([]rdf.Triple, 0, batchSize)
	flush := func() {
		a, _ := d.Apply(batch, nil)
		added += a
		batch = batch[:0]
	}
	err = read(func(t rdf.Triple) error {
		batch = append(batch, t)
		if len(batch) == cap(batch) {
			flush()
		}
		return nil
	})
	flush()
	return added, err
}

// AddStreamIDs is AddStream over interned triples: the reader interns
// terms (typically zero-copy off its input buffer) and the batches
// apply without ever touching a string.
func (d *Dataset) AddStreamIDs(batchSize int, read func(emit func(rdf.IDTriple) error) error) (added int, err error) {
	if batchSize <= 0 {
		batchSize = 10000
	}
	batch := make([]rdf.IDTriple, 0, batchSize)
	flush := func() {
		a, _ := d.ApplyIDs(batch, nil)
		added += a
		batch = batch[:0]
	}
	err = read(func(it rdf.IDTriple) error {
		batch = append(batch, it)
		if len(batch) == cap(batch) {
			flush()
		}
		return nil
	})
	flush()
	return added, err
}

// AddNTriples streams an N-Triples document into the dataset through
// the interning decoder — the zero-copy ingest path rdfserved uses for
// raw bodies. On a parse or read error, triples decoded before it
// remain applied and are reflected in added.
func (d *Dataset) AddNTriples(r io.Reader, batchSize int) (added int, err error) {
	return d.AddStreamIDs(batchSize, func(emit func(rdf.IDTriple) error) error {
		return rdf.ReadNTriplesIDs(r, d.Dict(), emit)
	})
}

// AddNTriplesCtx is AddNTriples bounded by ctx (see Engine).
func (d *Dataset) AddNTriplesCtx(ctx context.Context, r io.Reader, batchSize int) (added int, err error) {
	return d.AddStreamIDs(batchSize, func(emit func(rdf.IDTriple) error) error {
		return rdf.ReadNTriplesIDs(r, d.Dict(), ctxEmit(ctx, emit))
	})
}

// ctxEmitStride is how many decoded triples pass between context
// checks in AddNTriplesCtx — cheap enough to be noise, frequent enough
// that a deadline stops a multi-gigabyte stream within microseconds.
const ctxEmitStride = 512

// ctxEmit wraps a decoder emit callback with a periodic context check
// so streaming ingest honors request deadlines mid-body. The decoder
// propagates the emit error unwrapped, so errors.Is(err, ctx.Err())
// holds at the ingest surface.
func ctxEmit(ctx context.Context, emit func(rdf.IDTriple) error) func(rdf.IDTriple) error {
	n := 0
	return func(it rdf.IDTriple) error {
		n++
		if n%ctxEmitStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return emit(it)
	}
}

// colsKey returns the canonical identity of a column set. Unlike
// bitset.Set.Key it is independent of the (growing) column capacity.
func colsKey(cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// Apply ingests one batch: adds first, then removes, each deduplicated
// against the current triple set (re-adding a present triple or
// removing an absent one is a no-op). It returns the number of triples
// actually added and removed. The batch is atomic with respect to
// readers: no snapshot observes a half-applied batch.
func (d *Dataset) Apply(add, remove []rdf.Triple) (added, removed int) {
	// Intern/lookup outside the lock (the dictionary is independently
	// thread-safe), then run the shared ID batch path — so the string
	// and ID surfaces apply, version and log batches identically.
	addIDs := make([]rdf.IDTriple, 0, len(add))
	for _, t := range add {
		addIDs = append(addIDs, d.g.Intern(t))
	}
	var removeIDs []rdf.IDTriple
	for _, t := range remove {
		// Lookup, not Intern: removing a triple with never-seen terms is
		// a no-op and must not grow the dictionary.
		if it, ok := d.g.LookupTriple(t); ok {
			removeIDs = append(removeIDs, it)
		}
	}
	return d.ApplyIDs(addIDs, removeIDs)
}

// ApplyIDs is Apply over pre-interned triples — the string-free batch
// path fed by the interning decoders.
func (d *Dataset) ApplyIDs(add, remove []rdf.IDTriple) (added, removed int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, it := range add {
		if d.applyAdd(it) {
			added++
		}
	}
	for _, it := range remove {
		if d.applyRemove(it) {
			removed++
		}
	}
	d.finishBatch(added, removed)
	if (added > 0 || removed > 0) && d.hook != nil {
		d.hook(add, remove, d.epoch)
	}
	return added, removed
}

// finishBatch advances the epoch after a mutating batch and feeds the
// instrumentation tap. Caller holds mu.
func (d *Dataset) finishBatch(added, removed int) {
	if added == 0 && removed == 0 {
		return
	}
	d.epoch++
	d.added += uint64(added)
	d.removed += uint64(removed)
	if m := d.met; m != nil {
		m.added.Add(int64(added))
		m.removed.Add(int64(removed))
		m.batches.Inc()
		m.batchTriples.Observe(float64(added + removed))
		m.epoch.Set(int64(d.epoch))
		m.signatures.Set(int64(len(d.sigs)))
		m.subjects.Set(int64(d.g.SubjectCount()))
	}
}

// applyAdd inserts one triple and migrates its subject. Caller holds mu.
func (d *Dataset) applyAdd(it rdf.IDTriple) bool {
	s, p := it.S, it.P
	hadSubj := d.g.HasSubjectID(s)
	hadProp := hadSubj && d.g.HasPropertyID(s, p)
	if !d.g.AddID(it) {
		return false
	}
	if !hadSubj {
		d.tracker.AddSubjects(1)
	}
	gainedCol := -1
	if !hadProp && !d.ignore[p] {
		gainedCol = d.colFor(p)
		d.tracker.Gain(gainedCol)
	}
	if hadSubj && gainedCol < 0 {
		return true // no signature transition
	}
	var oldCols []int
	if hadSubj {
		oldCols = d.detach(s)
	}
	newCols := oldCols
	if gainedCol >= 0 {
		newCols = insertCol(oldCols, gainedCol)
		if d.pairs != nil {
			d.pairs.AddCol(oldCols, gainedCol)
		}
	}
	d.attach(s, newCols)
	return true
}

// applyRemove deletes one triple and migrates its subject. Caller
// holds mu.
func (d *Dataset) applyRemove(it rdf.IDTriple) bool {
	s, p := it.S, it.P
	if !d.g.RemoveID(it) {
		return false
	}
	lostCol := -1
	if !d.ignore[p] && !d.g.HasPropertyID(s, p) {
		lostCol = d.propIndex[p] // p was a column: the triple was present
		d.tracker.Lose(lostCol)
	}
	if !d.g.HasSubjectID(s) {
		d.tracker.AddSubjects(-1)
		old := d.detach(s)
		// A disappearing subject's last column (if any) is lostCol; the
		// pair tracker sees the same transition as a migration to the
		// empty column set.
		if lostCol >= 0 && d.pairs != nil {
			d.pairs.RemoveCol(removeCol(old, lostCol), lostCol)
		}
		delete(d.subjSig, s)
		return true
	}
	if lostCol < 0 {
		return true
	}
	oldCols := d.detach(s)
	newCols := removeCol(oldCols, lostCol)
	if d.pairs != nil {
		d.pairs.RemoveCol(newCols, lostCol)
	}
	d.attach(s, newCols)
	return true
}

// colFor returns p's column, creating it on first sight (or reviving a
// retired column of the same name).
func (d *Dataset) colFor(p term.ID) int {
	if i, ok := d.propIndex[p]; ok {
		return i
	}
	i := len(d.props)
	d.props = append(d.props, d.g.Dict().String(p))
	d.propIDs = append(d.propIDs, p)
	d.propIndex[p] = i
	d.tracker.Grow(len(d.props))
	if d.pairs != nil {
		d.pairs.Grow(len(d.props))
	}
	return i
}

// detach removes s from its signature set (retiring the set when it
// empties) and returns the set's columns. Returns nil for an unknown
// subject.
func (d *Dataset) detach(s term.ID) []int {
	st := d.subjSig[s]
	if st == nil {
		return nil
	}
	delete(st.subjects, s)
	if len(st.subjects) == 0 {
		delete(d.sigs, st.key)
	}
	return st.cols
}

// attach places s into the signature set for cols, creating it if new.
func (d *Dataset) attach(s term.ID, cols []int) {
	key := colsKey(cols)
	st := d.sigs[key]
	if st == nil {
		st = &sigState{cols: cols, key: key, subjects: make(map[term.ID]struct{})}
		d.sigs[key] = st
	}
	st.subjects[s] = struct{}{}
	d.subjSig[s] = st
}

// insertCol returns cols with c inserted in ascending order, never
// aliasing the input (signature states share their col slices).
func insertCol(cols []int, c int) []int {
	i := sort.SearchInts(cols, c)
	out := make([]int, 0, len(cols)+1)
	out = append(out, cols[:i]...)
	out = append(out, c)
	return append(out, cols[i:]...)
}

// removeCol returns cols without c, never aliasing the input.
func removeCol(cols []int, c int) []int {
	out := make([]int, 0, len(cols)-1)
	for _, x := range cols {
		if x != c {
			out = append(out, x)
		}
	}
	return out
}

// Snapshot returns the immutable view of the current epoch, building it
// on first request after a mutation (copy-on-write: the returned view
// is never touched by later batches). The construction works entirely
// off the signature-level state — O(|Λ(D)|·|P(D)|) plus subject-list
// copies when KeepSubjects is set — and is bit-identical to
// matrix.FromGraph on the same triples: retired columns are dropped and
// the rest are ordered by property name.
func (d *Dataset) Snapshot() *Snapshot {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.snapshotLocked()
}

// snapshotLocked returns the per-epoch cached snapshot, building it if
// stale. Caller holds at least an RLock (the snap pointer is atomic, so
// concurrent readers may race the store — they store identical
// content).
func (d *Dataset) snapshotLocked() *Snapshot {
	if s := d.snap.Load(); s != nil && s.Epoch == d.epoch {
		return s
	}
	s := &Snapshot{Epoch: d.epoch, View: d.buildView()}
	d.snap.Store(s)
	return s
}

// buildView materializes the current signature state. Caller holds at
// least an RLock.
func (d *Dataset) buildView() *matrix.View {
	counts := d.tracker.Counts()
	active := make([]int, 0, len(d.props))
	for i := range d.props {
		if counts[i] > 0 {
			active = append(active, i)
		}
	}
	names := make([]string, len(active))
	for j, i := range active {
		names[j] = d.props[i]
	}
	sort.Strings(names)
	remap := make([]int, len(d.props))
	for i := range remap {
		remap[i] = -1
	}
	nameIdx := make(map[string]int, len(names))
	for j, n := range names {
		nameIdx[n] = j
	}
	for _, i := range active {
		remap[i] = nameIdx[d.props[i]]
	}

	dict := d.g.Dict()
	sigs := make([]matrix.Signature, 0, len(d.sigs))
	var idxBuf []int
	for _, st := range d.sigs {
		// Remap the column list into name order and build the container
		// directly from the sorted indices — no |P|-wide scratch per
		// signature, and the adaptive representation kicks in on wide
		// schemas. st.cols is sorted in the append-only column space,
		// but name order permutes it, so re-sort after remapping.
		idxBuf = idxBuf[:0]
		for _, c := range st.cols {
			idxBuf = append(idxBuf, remap[c])
		}
		sort.Ints(idxBuf)
		sg := matrix.Signature{Bits: bitset.FromSortedIndices(len(names), idxBuf), Count: len(st.subjects)}
		if d.opts.KeepSubjects {
			subs := make([]string, 0, len(st.subjects))
			for s := range st.subjects {
				subs = append(subs, dict.String(s))
			}
			sort.Strings(subs)
			sg.Subjects = subs
		}
		sigs = append(sigs, sg)
	}
	v, err := matrix.NewDistinct(names, sigs)
	if err != nil {
		// Unreachable: the signature invariants guarantee distinct,
		// well-formed patterns. Fail loudly rather than serve a bad view.
		panic("incr: snapshot construction: " + err.Error())
	}
	return v
}

// Sigma evaluates a counts-based measure (σCov, σSim) against the live
// counts in O(|P|), no snapshot needed.
func (d *Dataset) Sigma(fn rules.CountsFunc) rules.Ratio {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tracker.Eval(fn)
}

// livePairCounts adapts the dataset's live pair tracker to the
// rules.PairCounts read interface. Valid only under d.mu; names
// resolve through the dictionary with Lookup (never growing it), so a
// never-seen property is simply absent and the kernel goes vacuous.
// Retired columns resolve but carry zero counts, which the kernels'
// N_p checks treat identically to absence — matching snapshot
// evaluation, where retired columns are dropped from the view.
type livePairCounts struct{ d *Dataset }

func (lp livePairCounts) Column(name string) (int, bool) {
	id, ok := lp.d.g.Dict().Lookup(name)
	if !ok {
		return 0, false
	}
	i, ok := lp.d.propIndex[id]
	return i, ok
}

func (lp livePairCounts) Both(i, j int) int64 { return lp.d.pairs.Both(i, j) }

// SigmaPairs evaluates a pair-counts measure (σDep, σSymDep, σDepDisj,
// compiled two-variable rules) against the live aggregates — O(1) per
// read for measures with fixed pair demands, no snapshot build.
// Returns ok = false when pair tracking is disabled
// (Options.DisablePairCounts); callers then evaluate against a
// Snapshot instead.
func (d *Dataset) SigmaPairs(fn rules.PairCountsFunc) (rules.Ratio, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.pairs == nil {
		return rules.Ratio{}, false
	}
	return fn.EvalPairCounts(d.tracker.Counts(), livePairCounts{d}, d.tracker.Subjects()), true
}

// SigmaStats evaluates fn and reads Stats under one read lock (see
// Engine).
func (d *Dataset) SigmaStats(fn rules.Func) (ratio rules.Ratio, st Stats, live bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	st = d.statsLocked()
	switch f := fn.(type) {
	case rules.CountsFunc:
		return d.tracker.Eval(f), st, true
	case rules.PairCountsFunc:
		if d.pairs != nil {
			return f.EvalPairCounts(d.tracker.Counts(), livePairCounts{d}, d.tracker.Subjects()), st, true
		}
	}
	return rules.Ratio{}, st, false
}

// PairsTracked reports whether the live pair-count tracker is on.
func (d *Dataset) PairsTracked() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.pairs != nil
}

// SigmaCov returns σCov of the live dataset.
func (d *Dataset) SigmaCov() rules.Ratio { return d.Sigma(rules.CovFunc().(rules.CountsFunc)) }

// SigmaSim returns σSim of the live dataset.
func (d *Dataset) SigmaSim() rules.Ratio { return d.Sigma(rules.SimFunc().(rules.CountsFunc)) }

// Stats summarizes the live dataset.
type Stats struct {
	Epoch      uint64 `json:"epoch"`
	Triples    int    `json:"triples"`
	Subjects   int    `json:"subjects"`
	Properties int    `json:"properties"` // active (non-retired) columns
	Signatures int    `json:"signatures"`
	Terms      int    `json:"terms"`   // distinct interned terms
	Added      uint64 `json:"added"`   // triples added over the dataset's lifetime
	Removed    uint64 `json:"removed"` // triples removed over the dataset's lifetime
}

// Stats returns current dataset statistics in O(|P|).
func (d *Dataset) Stats() Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.statsLocked()
}

// statsLocked computes Stats. Caller holds at least an RLock.
func (d *Dataset) statsLocked() Stats {
	activeProps := 0
	for _, c := range d.tracker.Counts() {
		if c > 0 {
			activeProps++
		}
	}
	return Stats{
		Epoch:      d.epoch,
		Triples:    d.g.Len(),
		Subjects:   d.g.SubjectCount(),
		Properties: activeProps,
		Signatures: len(d.sigs),
		Terms:      d.g.Dict().Len(),
		Added:      d.added,
		Removed:    d.removed,
	}
}

// activeLocked reports whether property id has a live (non-retired)
// column. Caller holds at least an RLock.
func (d *Dataset) activeLocked(id term.ID) bool {
	c, ok := d.propIndex[id]
	return ok && d.tracker.Counts()[c] > 0
}

// sigKeySet is a shard's signature identities at one shard epoch, in
// dictionary terms: each key is the signature's property IDs, sorted
// and packed four bytes apiece. Column indices are shard-local, but
// the shards of a Sharded engine share one dictionary, so equal keys on
// two shards are the same merged signature.
type sigKeySet struct {
	epoch uint64
	keys  map[string]struct{}
}

// sigKeysLocked returns the signature identities of the current epoch,
// cached per epoch like the snapshot. Caller holds at least an RLock.
func (d *Dataset) sigKeysLocked() map[string]struct{} {
	if m := d.sigKeys.Load(); m != nil && m.epoch == d.epoch {
		return m.keys
	}
	keys := make(map[string]struct{}, len(d.sigs))
	var ids []term.ID
	var key []byte
	for _, st := range d.sigs {
		ids = ids[:0]
		for _, c := range st.cols {
			ids = append(ids, d.propIDs[c])
		}
		slices.Sort(ids)
		key = key[:0]
		for _, id := range ids {
			key = binary.LittleEndian.AppendUint32(key, uint32(id))
		}
		keys[string(key)] = struct{}{}
	}
	d.sigKeys.Store(&sigKeySet{epoch: d.epoch, keys: keys})
	return keys
}

// ViewStorage breaks down the signature-storage footprint of the
// engine's current snapshot plus its live pair aggregates — the
// serving tier's /stats and rdf_view_bytes surface.
type ViewStorage struct {
	// DenseSigs and SparseSigs count the snapshot's signatures by
	// container representation.
	DenseSigs  int `json:"dense_sigs"`
	SparseSigs int `json:"sparse_sigs"`
	// SigBytes estimates the snapshot's signature-container footprint.
	SigBytes int64 `json:"sig_bytes"`
	// ViewBytes estimates the whole snapshot view (signatures, property
	// table, any built pair aggregate).
	ViewBytes int64 `json:"view_bytes"`
	// TrackerBytes estimates the live pair trackers' footprint (0 when
	// pair tracking is disabled).
	TrackerBytes int64 `json:"tracker_bytes"`
}

// merge adds o's breakdown into v (per-shard sums).
func (v *ViewStorage) merge(o ViewStorage) {
	v.DenseSigs += o.DenseSigs
	v.SparseSigs += o.SparseSigs
	v.SigBytes += o.SigBytes
	v.ViewBytes += o.ViewBytes
	v.TrackerBytes += o.TrackerBytes
}

// ViewStorage returns the dataset's storage breakdown. The snapshot is
// the per-epoch cached one (built if stale), so repeated reads between
// mutations are cheap.
func (d *Dataset) ViewStorage() ViewStorage {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.viewStorageLocked()
}

// viewStorageLocked computes the breakdown. Caller holds at least an
// RLock.
func (d *Dataset) viewStorageLocked() ViewStorage {
	snap := d.snapshotLocked()
	st := snap.View.StorageStats()
	vs := ViewStorage{
		DenseSigs:  st.DenseSigs,
		SparseSigs: st.SparseSigs,
		SigBytes:   st.SigBytes,
		ViewBytes:  snap.View.MemSize(),
	}
	if d.pairs != nil {
		vs.TrackerBytes = d.pairs.MemSize()
	}
	return vs
}

// Contains reports whether the triple is currently in the dataset.
func (d *Dataset) Contains(t rdf.Triple) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.g.Contains(t)
}

// Epoch returns the current epoch.
func (d *Dataset) Epoch() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.epoch
}
