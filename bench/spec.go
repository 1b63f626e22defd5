package main

import (
	"fmt"
	"io"
)

// metricSpec is one row of BENCHMARK.json's end_to_end or per_layer
// list. Bound is the regression bound of an end-to-end metric and 0 for
// a per-layer one, which is reported but not gated.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one: each workload is a different mix of the same three user
// operations (ask for σ, ingest data, ask for a refinement) through a
// different front end, corpus and topology. README.md says what each
// name measures on each workload. A bound is three times the widest
// spread (quartile distance over median, ten seeds) seen for the metric
// on any workload of this sandbox, rounded up to a multiple of 5%.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"sigma_p50_ms", "ms", "lower", 0.15},
	{"ingest_p50_ms", "ms", "lower", 0.20},
	{"refine_p50_ms", "ms", "lower", 0.20},
}

// perLayer lists the single-layer figures, printed by a --trace 1 run.
// Names are <layer>.<what>; a layer is a package under internal/, or
// "harness" for the load generator's own health and the hardware
// ceilings. A layer that does no work on a workload reports 0 there.
var perLayer = []metricSpec{
	// Ceilings and generator health, measured by every run.
	{"harness.build_s", "s", "lower", 0},
	{"harness.memcpy_mb_per_s", "MB/s", "higher", 0},
	{"harness.fsync_p50_ms", "ms", "lower", 0},
	{"harness.spin_ms", "ms", "lower", 0},
	{"harness.parallel_ratio", "ratio", "lower", 0},
	{"harness.late_p99_ms", "ms", "lower", 0},
	{"harness.client_cpu_share", "ratio", "lower", 0},

	// Seen from outside the running processes: latencies, counters
	// scraped from /metrics, X-Cache headers and /proc/<pid>.
	{"serve.ingest_triples_per_s", "triples/s", "higher", 0},
	{"serve.retract_triples_per_s", "triples/s", "higher", 0},
	{"serve.write_small_p50_ms", "ms", "lower", 0},
	{"serve.write_p99_ms", "ms", "lower", 0},
	{"serve.recovery_s", "s", "lower", 0},
	{"serve.sigma_reads_per_s", "1/s", "higher", 0},
	{"serve.sigma_p99_ms", "ms", "lower", 0},
	{"wal.bytes_per_user_byte", "ratio", "lower", 0},
	{"wal.fsyncs", "count", "lower", 0},
	{"wal.flush_records_mean", "count", "higher", 0},
	{"wal.checkpoints", "count", "lower", 0},
	{"protect.sigma_cache_hit_ratio", "ratio", "higher", 0},
	{"protect.shed", "count", "lower", 0},
	{"protect.admission_wait_s", "s", "lower", 0},
	{"cluster.fanout_p50_ms", "ms", "lower", 0},
	{"cluster.hedged_reads", "count", "lower", 0},
	{"cluster.failovers", "count", "lower", 0},
	{"cluster.retries", "count", "lower", 0},
	{"cluster.write_rejected", "count", "lower", 0},

	// Spans around calls into each layer's public functions, from the
	// in-process replay (mean seconds per call unless the name says
	// otherwise).
	{"rdf.parse_intern_s", "s", "lower", 0},
	{"rdf.parse_mb_per_s", "MB/s", "higher", 0},
	{"rdf.parse_string_s", "s", "lower", 0},
	{"rdf.graph_add_s", "s", "lower", 0},
	{"term.new_terms", "count", "lower", 0},
	{"matrix.from_graph_s", "s", "lower", 0},
	{"matrix.pair_counts_s", "s", "lower", 0},
	{"matrix.merge_views_s", "s", "lower", 0},
	{"matrix.encode_view_s", "s", "lower", 0},
	{"matrix.decode_view_s", "s", "lower", 0},
	{"matrix.view_bytes", "bytes", "lower", 0},
	{"matrix.sparse_signature_share", "ratio", "higher", 0},
	{"rules.eval_cov_s", "s", "lower", 0},
	{"rules.eval_sim_s", "s", "lower", 0},
	{"rules.eval_dep_s", "s", "lower", 0},
	{"rules.eval_rule2_s", "s", "lower", 0},
	{"rules.signature_scans", "count", "lower", 0},
	{"refine.encode_s", "s", "lower", 0},
	{"ilp.model_vars", "count", "lower", 0},
	{"ilp.model_constraints", "count", "lower", 0},
	{"ilp.solve_feasible_s", "s", "lower", 0},
	{"ilp.solve_infeasible_s", "s", "lower", 0},
	{"refine.highest_theta_s", "s", "lower", 0},
	{"refine.lowest_k_s", "s", "lower", 0},
	{"refine.heuristic_s", "s", "lower", 0},
	{"refine.instances", "count", "lower", 0},
	{"refine.restarts", "count", "lower", 0},
	{"incr.apply_add_s", "s", "lower", 0},
	{"incr.apply_remove_s", "s", "lower", 0},
	{"incr.apply_triples_per_s", "triples/s", "higher", 0},
	{"incr.stats_s", "s", "lower", 0},
	{"incr.sigma_counts_s", "s", "lower", 0},
	{"incr.sigma_pairs_s", "s", "lower", 0},
	{"incr.snapshot_s", "s", "lower", 0},
	{"incr.export_agg_s", "s", "lower", 0},
	{"incr.merge_agg_s", "s", "lower", 0},
	{"incr.agg_export_bytes", "bytes", "lower", 0},
	{"wal.barrier_s", "s", "lower", 0},
	{"wal.barrier_p99_ms", "ms", "lower", 0},
	{"wal.checkpoint_s", "s", "lower", 0},
	{"wal.recover_s", "s", "lower", 0},
	{"wal.recovered_records", "count", "lower", 0},
	{"wal.dir_bytes_per_triple", "bytes", "lower", 0},
	{"serve.sigma_hit_s", "s", "lower", 0},
	{"serve.sigma_miss_s", "s", "lower", 0},
	{"serve.sigma_self_s", "s", "lower", 0},
	{"serve.sigma_response_bytes", "bytes", "lower", 0},
	{"serve.triples_raw_s", "s", "lower", 0},
	{"serve.triples_json_s", "s", "lower", 0},
	{"serve.triples_self_s", "s", "lower", 0},
	{"cluster.sigma_s", "s", "lower", 0},
	{"cluster.triples_s", "s", "lower", 0},
	{"cluster.refine_s", "s", "lower", 0},
	{"cluster.sigma_overhead_ratio", "ratio", "lower", 0},
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// run drives the shipped binaries and fills the report's end-to-end
	// metrics and outside-view layer counters.
	run func(rc *runCtx) error
	// trace replays the same seeded inputs in-process and fills the
	// span-derived layer metrics.
	trace func(rc *runCtx, tr *tracer) error
}

var workloads = []*workload{
	{
		name:  "batch-paper",
		why:   "the paper's experiment through the CLIs: rdfstruct and rdfrefine on Persons and WordNet dumps; no server, WAL or cluster code runs",
		run:   runBatchPaper,
		trace: traceBatchPaper,
	},
	{
		name:  "ingest-durable",
		why:   "write path: bulk raw, retract and small JSON batches into an empty WAL-backed rdfserved, then SIGKILL and recovery; sigma and refine only as probes",
		run:   runIngestDurable,
		trace: traceIngestDurable,
	},
	{
		name:  "sigma-wide",
		why:   "read path where sigma is compute-bound: 2000 columns, 512 Zipf keys against a 256-entry cache, 2% writes bumping the epoch; no WAL",
		run:   runSigmaWide,
		trace: traceSigmaWide,
	},
	{
		name:  "cluster-mixed",
		why:   "open loop at a fixed rate through rdfcoord over 2 groups x 2 replicas: fan-out, exact merge, replicated durable writes, uncached refine; narrow schema",
		run:   runClusterMixed,
		trace: traceClusterMixed,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// printList prints the workload and metric names, one per line, in the
// order BENCHMARK.json lists them.
func printList(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload %s\n", wl.name)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "end_to_end %s\n", m.Name)
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "per_layer %s\n", m.Name)
	}
}
