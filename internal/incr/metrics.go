package incr

import (
	"strconv"

	"repro/internal/metrics"
)

// shardMetrics is one shard's ingest instrumentation tap. All updates
// happen per effective batch (never per triple) under the shard lock,
// so the hot-path cost is a handful of atomic adds per Apply — noise
// next to the signature migration work itself.
type shardMetrics struct {
	added, removed *metrics.Counter
	batches        *metrics.Counter
	batchTriples   *metrics.Histogram
	epoch          *metrics.Gauge
	signatures     *metrics.Gauge
	subjects       *metrics.Gauge
}

// engineMetrics is the per-shard-labeled family set shared by the
// single Dataset (one "0" shard) and the sharded engine. The bucket
// layout is uniform across shards, so per-shard batch histograms merge
// exactly (metrics.Histogram.Merge) — the same additive discipline as
// the σ aggregates.
type engineMetrics struct {
	triples      *metrics.CounterVec
	batches      *metrics.CounterVec
	batchTriples *metrics.HistogramVec
	epoch        *metrics.GaugeVec
	signatures   *metrics.GaugeVec
	subjects     *metrics.GaugeVec
}

func newEngineMetrics(reg *metrics.Registry) *engineMetrics {
	return &engineMetrics{
		triples: reg.CounterVec("rdf_ingest_triples_total",
			"Triples applied to the live dataset, by shard and operation.", "shard", "op"),
		batches: reg.CounterVec("rdf_ingest_batches_total",
			"Effective (non-empty) ingest batches applied, by shard.", "shard"),
		batchTriples: reg.HistogramVec("rdf_ingest_batch_triples",
			"Triples per effective ingest batch, by shard.", metrics.DefSizeBuckets, "shard"),
		epoch: reg.GaugeVec("rdf_engine_epoch",
			"Current shard epoch (one increment per effective batch).", "shard"),
		signatures: reg.GaugeVec("rdf_engine_signatures",
			"Live signature sets per shard.", "shard"),
		subjects: reg.GaugeVec("rdf_engine_subjects",
			"Live subjects per shard.", "shard"),
	}
}

// shard materializes shard i's children (cached here, so the batch
// path never touches the vec maps).
func (m *engineMetrics) shard(i int) *shardMetrics {
	s := strconv.Itoa(i)
	return &shardMetrics{
		added:        m.triples.With(s, "add"),
		removed:      m.triples.With(s, "remove"),
		batches:      m.batches.With(s),
		batchTriples: m.batchTriples.With(s),
		epoch:        m.epoch.With(s),
		signatures:   m.signatures.With(s),
		subjects:     m.subjects.With(s),
	}
}

// cutMetrics counts reads through the sharded engine's merged read cut
// by whether the part they needed had to be built (the first such read
// of an epoch) or was reused — on a live server, whether σ misses are
// amortized across an epoch.
type cutMetrics struct{ build, reuse *metrics.Counter }

func newCutMetrics(reg *metrics.Registry) *cutMetrics {
	v := reg.CounterVec("rdf_engine_read_cut_total",
		"Merged cross-shard reads (sigma, stats, aggregate export), by whether the epoch's read cut was built or reused.", "outcome")
	return &cutMetrics{build: v.With("build"), reuse: v.With("reuse")}
}

// observe records one read; a nil tap (no registry) records nothing.
func (m *cutMetrics) observe(built bool) {
	if m == nil {
		return
	}
	if built {
		m.build.Inc()
	} else {
		m.reuse.Inc()
	}
}

// setMetrics installs the shard's instrumentation tap. Like
// SetBatchHook it takes the write lock, so installation never races a
// batch mid-flight.
func (d *Dataset) setMetrics(m *shardMetrics) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.met = m
	if m != nil {
		// Seed the gauges so a scrape before the first post-registration
		// batch (e.g. right after WAL recovery) reads the true state.
		m.epoch.Set(int64(d.epoch))
		m.signatures.Set(int64(len(d.sigs)))
		m.subjects.Set(int64(d.g.SubjectCount()))
	}
}

// registerTerms adds the scrape-time gauge over the (shared,
// independently thread-safe) term dictionary.
func registerTerms(reg *metrics.Registry, dict interface{ Len() int }) {
	reg.GaugeFunc("rdf_engine_terms",
		"Distinct interned terms in the dictionary.",
		func() float64 { return float64(dict.Len()) })
}

// registerViewStorage adds the scrape-time signature-storage gauges.
// Each scrape reads the engine's ViewStorage breakdown — the snapshot
// behind it is cached per epoch, so steady-state scrapes cost pointer
// loads, and a scrape after a burst pays one snapshot build that the
// next reader would have paid anyway.
func registerViewStorage(reg *metrics.Registry, e Engine) {
	reg.GaugeFunc("rdf_view_bytes",
		"Estimated bytes held by the current snapshot view(s): signature containers, property tables and built pair aggregates.",
		func() float64 { return float64(e.ViewStorage().ViewBytes) })
	reg.GaugeFunc("rdf_view_sparse_signatures",
		"Snapshot signatures stored in the compressed sorted-index container.",
		func() float64 { return float64(e.ViewStorage().SparseSigs) })
	reg.GaugeFunc("rdf_view_dense_signatures",
		"Snapshot signatures stored in the dense word container.",
		func() float64 { return float64(e.ViewStorage().DenseSigs) })
	reg.GaugeFunc("rdf_pair_tracker_bytes",
		"Estimated bytes held by the live pair-count trackers.",
		func() float64 { return float64(e.ViewStorage().TrackerBytes) })
}

// RegisterMetrics registers the dataset's ingest instrumentation into
// reg (shard label "0") and installs the tap. Register at most once
// per registry — the family names are claimed globally.
func (d *Dataset) RegisterMetrics(reg *metrics.Registry) {
	d.setMetrics(newEngineMetrics(reg).shard(0))
	registerTerms(reg, d.Dict())
	registerViewStorage(reg, d)
}

// RegisterMetrics registers per-shard ingest instrumentation for every
// shard into reg and installs the taps, plus the shared-dictionary
// term gauge.
func (s *Sharded) RegisterMetrics(reg *metrics.Registry) {
	m := newEngineMetrics(reg)
	for i, d := range s.shards {
		d.setMetrics(m.shard(i))
	}
	s.met.Store(newCutMetrics(reg))
	registerTerms(reg, s.dict)
	registerViewStorage(reg, s)
}
