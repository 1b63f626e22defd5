package main

// This is the only file of the benchmark that imports repro/internal/...
// The end-to-end runs use nothing but the shipped binaries; the traced
// replays below call each layer's public functions directly, with a span
// around every call, so a change of an internal API is an edit to this
// file alone (layers_test.go checks the other files stay clean).

import (
	"bytes"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/incr"
	"repro/internal/matrix"
	"repro/internal/rdf"
	"repro/internal/refine"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/term"
	"repro/internal/wal"
)

// Ops replayed per traced run. The replays are sequential and fixed in
// size, so their cost does not grow with --seconds.
const (
	traceIngestScale = 0.025 // Persons: about 105k triples, 100 bulk bodies
	traceLiveOps     = 1000  // with the bulk and retract bodies, enough barriers for a p99
	traceSigmaOps    = 3000
	traceClusterOps  = 600
)

// layerMean reports the mean duration of the named spans as a layer
// metric, when there are any.
func layerMean(rc *runCtx, tr *tracer, metric, spanName string) {
	if v, ok := tr.meanS(spanName); ok {
		rc.layer(metric, v)
	}
}

// call sends one request through an in-process handler.
func call(h http.Handler, method, target, contentType string, data []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(data))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func post(h http.Handler, b body) error {
	if rec := call(h, http.MethodPost, "/triples", b.contentType, b.data); rec.Code != http.StatusOK {
		return fmt.Errorf("in-process POST /triples: status %d: %s", rec.Code, firstLine(rec.Body.Bytes()))
	}
	return nil
}

// parseRaw is the raw-body path's first step: decode N-Triples and
// intern every term.
func parseRaw(data []byte, dict *term.Dict) ([]rdf.IDTriple, error) {
	var ids []rdf.IDTriple
	err := rdf.ReadNTriplesIDs(bytes.NewReader(data), dict, func(t rdf.IDTriple) error {
		ids = append(ids, t)
		return nil
	})
	return ids, err
}

// parseLines is the JSON-body path's first step: one string triple per line.
func parseLines(group []block) ([]rdf.Triple, error) {
	var out []rdf.Triple
	for _, b := range group {
		for i, l := range b.lines {
			t, ok, err := rdf.ParseNTriplesLine(l, i+1)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, t)
			}
		}
	}
	return out, nil
}

// loadView builds the signature view of a dump the way the CLIs do.
func loadView(path string) (*matrix.View, error) {
	d, err := core.Load(path, "")
	if err != nil {
		return nil, err
	}
	return d.View, nil
}

// viewShape reports a view's footprint and how many of its signatures
// use the compressed container.
func viewShape(rc *runCtx, v *matrix.View) {
	rc.layer("matrix.view_bytes", float64(v.MemSize()))
	st := v.StorageStats()
	if n := st.DenseSigs + st.SparseSigs; n > 0 {
		rc.layer("matrix.sparse_signature_share", float64(st.SparseSigs)/float64(n))
	}
}

// durableEngine is an in-process twin of "rdfserved -data-dir": an
// engine with a write-ahead log attached, built from the constructors
// cmd/rdfserved uses.
type durableEngine struct {
	engine incr.Engine
	store  *wal.Store
	dir    string
}

func newDurableEngine(rc *runCtx, name string, shards int) (*durableEngine, error) {
	dir, err := rc.env.dir(name)
	if err != nil {
		return nil, err
	}
	d := &durableEngine{dir: dir}
	var list []*incr.Dataset
	if shards > 1 {
		s := incr.NewSharded(shards, incr.Options{})
		d.engine, list = s, s.Shards()
	} else {
		ds := incr.NewDataset(incr.Options{})
		d.engine, list = ds, []*incr.Dataset{ds}
	}
	d.store, _, err = wal.Open(dir, d.engine.Dict(), list, wal.Options{Mode: wal.SyncBatch})
	return d, err
}

// server wraps the engine in the HTTP layer with rdfserved's defaults
// that matter to the request path (no admission gate: spans inside the
// server are a later change, and an ungated replay never queues).
func (d *durableEngine) server(worker bool) *serve.Server {
	return serve.New(d.engine, serve.Options{
		Durable: d.store, Backlog: d.store, MaxBacklogBytes: 64 << 20,
		WriteDeadline: 30 * time.Second, RefineSWR: true, ClusterWorker: worker,
		Logf: func(string, ...interface{}) {},
	})
}

func traceBatchPaper(rc *runCtx, tr *tracer) error {
	dir, err := rc.env.dir("trace-batch")
	if err != nil {
		return err
	}
	persons5, persons1, nouns := filepath.Join(dir, "persons5.nt"), filepath.Join(dir, "persons1.nt"), filepath.Join(dir, "nouns.nt")
	if err := rc.gen("dbpedia", 0.05, persons5); err != nil {
		return err
	}
	if err := rc.gen("dbpedia", 0.01, persons1); err != nil {
		return err
	}
	if err := rc.gen("wordnet", 0.01, nouns); err != nil {
		return err
	}

	// rdfstruct on the 5% dump: parse and intern, index, build the view,
	// evaluate the four rules.
	data, err := os.ReadFile(persons5)
	if err != nil {
		return err
	}
	tr.nextOp()
	dict := term.NewDict()
	var ids []rdf.IDTriple
	tr.do("rdf.parse_intern", func() { ids, err = parseRaw(data, dict) })
	if err != nil {
		return err
	}
	parseS, _ := tr.meanS("rdf.parse_intern")
	rc.layer("rdf.parse_intern_s", parseS)
	rc.layer("rdf.parse_mb_per_s", float64(len(data))/1e6/parseS)
	rc.layer("term.new_terms", float64(dict.Len()))
	g := rdf.NewGraphWithDict(dict)
	tr.do("rdf.graph_add", func() {
		for _, t := range ids {
			g.AddID(t)
		}
	})
	var view *matrix.View
	tr.do("matrix.from_graph", func() { view = matrix.FromGraph(g, matrix.Options{}) })
	tr.do("matrix.pair_counts", func() { view.PairCounts() })
	for _, ev := range []struct {
		span string
		rule *rules.Rule
	}{
		{"rules.eval_cov", rules.CovRule()},
		{"rules.eval_sim", rules.SimRule()},
		{"rules.eval_dep", rules.DepRule("deathPlace", "deathDate")},
		{"rules.eval_rule2", rules.MustParse(paperRule)},
	} {
		tr.do(ev.span, func() { _, err = rules.FuncForRule(ev.rule).Eval(view) })
		if err != nil {
			return err
		}
		layerMean(rc, tr, ev.span+"_s", ev.span)
	}
	layerMean(rc, tr, "rdf.graph_add_s", "rdf.graph_add")
	layerMean(rc, tr, "matrix.from_graph_s", "matrix.from_graph")
	layerMean(rc, tr, "matrix.pair_counts_s", "matrix.pair_counts")
	viewShape(rc, view)

	// rdfrefine on the 1% dump: both search strategies sequentially
	// (workers = 1, so signature scans repeat exactly), then the ILP of
	// the decisive instance on its own.
	v1, err := loadView(persons1)
	if err != nil {
		return err
	}
	tr.nextOp()
	opts := refine.SearchOptions{
		Solver:  ilp.Options{MaxDecisions: 500000},
		Encode:  refine.EncodeOptions{SymmetryBreaking: true},
		Workers: 1,
	}
	scans, restarts := rules.SignatureScans(), refine.Restarts()
	var best, dep *refine.Outcome
	tr.do("refine.highest_theta", func() { best, err = refine.HighestTheta(v1, rules.CovRule(), nil, 2, opts) })
	if err != nil {
		return err
	}
	tr.do("refine.highest_theta", func() {
		dep, err = refine.HighestTheta(v1, rules.DepRule("deathPlace", "deathDate"), nil, 2, opts)
	})
	if err != nil {
		return err
	}
	rc.layer("rules.signature_scans", float64(rules.SignatureScans()-scans))
	rc.layer("refine.instances", float64(best.Instances+dep.Instances))
	tr.do("refine.lowest_k", func() { _, err = refine.LowestK(v1, rules.CovRule(), nil, 75, 100, opts) })
	if err != nil {
		return err
	}
	layerMean(rc, tr, "refine.highest_theta_s", "refine.highest_theta")
	layerMean(rc, tr, "refine.lowest_k_s", "refine.lowest_k")

	for _, inst := range []struct {
		span   string
		theta1 int64
	}{
		{"ilp.solve_feasible", best.Theta1},       // θ*: a refinement exists
		{"ilp.solve_infeasible", best.Theta1 + 1}, // θ*+1 on the same grid: none does
	} {
		p := &refine.Problem{View: v1, Rule: rules.CovRule(), K: 2, Theta1: inst.theta1, Theta2: best.Theta2}
		var enc *refine.Encoding
		tr.do("refine.encode", func() { enc, err = refine.Encode(p, opts.Encode) })
		if err != nil {
			return err
		}
		rc.layer("ilp.model_vars", float64(enc.Model.NumVars()))
		rc.layer("ilp.model_constraints", float64(enc.Model.NumConstraints()))
		tr.do(inst.span, func() { ilp.SolvePB(enc.Model, opts.Solver) })
		layerMean(rc, tr, inst.span+"_s", inst.span)
	}
	layerMean(rc, tr, "refine.encode_s", "refine.encode")

	// The heuristic engine on the instance the exact one gives up on.
	vn, err := loadView(nouns)
	if err != nil {
		return err
	}
	tr.nextOp()
	hard := &refine.Problem{View: vn, Rule: rules.CovRule(), K: 2, Theta1: 55, Theta2: 100}
	tr.do("refine.heuristic", func() {
		_, _, err = refine.SolveHeuristic(hard, refine.HeuristicOptions{Restarts: 4, MaxIters: 30, Seed: rc.seed})
	})
	if err != nil {
		return err
	}
	layerMean(rc, tr, "refine.heuristic_s", "refine.heuristic")
	rc.layer("refine.restarts", float64(refine.Restarts()-restarts))
	return nil
}

// copyDir copies a data directory as it is on disk, which is what a
// process started after a crash would find.
func copyDir(dst, src string) (bytes int64, err error) {
	err = filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		bytes += int64(len(data))
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	return bytes, err
}

func traceIngestDurable(rc *runCtx, tr *tracer) error {
	dir, err := rc.env.dir("trace-ingest")
	if err != nil {
		return err
	}
	dump := filepath.Join(dir, "persons.nt")
	if err := rc.gen("dbpedia", traceIngestScale, dump); err != nil {
		return err
	}
	in, err := ingestInputs(rc, dump)
	if err != nil {
		return err
	}
	// Twin A takes each request through the whole server; twin B takes
	// the same input through the layers one call at a time.
	a, err := newDurableEngine(rc, "trace-wal-a", 2)
	if err != nil {
		return err
	}
	defer a.store.Close()
	b, err := newDurableEngine(rc, "trace-wal-b", 2)
	if err != nil {
		return err
	}
	defer b.store.Close()
	srv := a.server(false)
	barrier := func() {
		tr.do("wal.barrier", func() { err = b.store.Barrier() })
	}

	var applied int
	for _, body := range in.bulk {
		tr.nextOp()
		tr.do("serve.triples_raw", func() { err = post(srv, body) })
		if err != nil {
			return err
		}
		var ids []rdf.IDTriple
		tr.do("rdf.parse_intern", func() { ids, err = parseRaw(body.data, b.engine.Dict()) })
		if err != nil {
			return err
		}
		tr.do("incr.apply_add", func() { b.engine.ApplyIDs(ids, nil) })
		applied += len(ids)
		if barrier(); err != nil {
			return err
		}
	}
	// Self time of the raw handler: what is left of a request after the
	// three layer calls that block it.
	raw, _ := tr.meanS("serve.triples_raw")
	parse, _ := tr.meanS("rdf.parse_intern")
	apply, _ := tr.meanS("incr.apply_add")
	sync, _ := tr.meanS("wal.barrier")
	rc.layer("serve.triples_raw_s", raw)
	rc.layer("serve.triples_self_s", raw-parse-apply-sync)
	rc.layer("rdf.parse_intern_s", parse)
	var bulkBytes int
	for _, body := range in.bulk {
		bulkBytes += len(body.data)
	}
	rc.layer("rdf.parse_mb_per_s", float64(bulkBytes)/1e6/(parse*float64(len(in.bulk))))
	rc.layer("incr.apply_add_s", apply)
	rc.layer("incr.apply_triples_per_s", float64(applied)/(apply*float64(len(in.bulk))))
	rc.note("bulk batch, blocking path: parse+intern %.0f%%, apply %.0f%%, barrier %.0f%%, server self %.0f%% of %.2f ms",
		100*parse/raw, 100*apply/raw, 100*sync/raw, 100*(raw-parse-apply-sync)/raw, 1000*raw)

	tr.do("wal.checkpoint", func() { err = b.store.Checkpoint() })
	if err != nil {
		return err
	}
	layerMean(rc, tr, "wal.checkpoint_s", "wal.checkpoint")

	jsonOp := func(body body, group []block, remove bool) error {
		tr.nextOp()
		tr.do("serve.triples_json", func() { err = post(srv, body) })
		if err != nil {
			return err
		}
		var ts []rdf.Triple
		tr.do("rdf.parse_string", func() { ts, err = parseLines(group) })
		if err != nil {
			return err
		}
		if remove {
			tr.do("incr.apply_remove", func() { b.engine.Apply(nil, ts) })
		} else {
			tr.do("incr.apply_add_small", func() { b.engine.Apply(ts, nil) })
		}
		barrier()
		return err
	}
	for i, body := range in.retract {
		if err := jsonOp(body, in.retractGroups[i], true); err != nil {
			return err
		}
	}
	for i := 0; i < min(traceLiveOps, len(in.live)); i++ {
		if err := jsonOp(in.live[i], in.liveGroups[i], false); err != nil {
			return err
		}
	}
	layerMean(rc, tr, "serve.triples_json_s", "serve.triples_json")
	layerMean(rc, tr, "rdf.parse_string_s", "rdf.parse_string")
	layerMean(rc, tr, "incr.apply_remove_s", "incr.apply_remove")
	layerMean(rc, tr, "wal.barrier_s", "wal.barrier")
	if v, ok := p99(scale(tr.seconds("wal.barrier"), 1000)); ok {
		rc.layer("wal.barrier_p99_ms", v)
	}

	// Recovery: open a copy of B's directory as a crashed process's
	// successor would, into a fresh engine.
	crashed, err := rc.env.dir("trace-wal-crashed")
	if err != nil {
		return err
	}
	dirBytes, err := copyDir(crashed, b.dir)
	if err != nil {
		return err
	}
	fresh := incr.NewSharded(2, incr.Options{})
	var rec *wal.RecoveryStats
	var store *wal.Store
	tr.nextOp()
	tr.do("wal.recover", func() {
		store, rec, err = wal.Open(crashed, fresh.Dict(), fresh.Shards(), wal.Options{Mode: wal.SyncBatch})
	})
	if err != nil {
		return err
	}
	defer store.Close()
	layerMean(rc, tr, "wal.recover_s", "wal.recover")
	rc.layer("wal.recovered_records", float64(rec.Records))
	if got, want := fresh.Stats().Triples, b.engine.Stats().Triples; got != want {
		rc.wrong("in-process recovery restored %d triples, the engine held %d", got, want)
	} else {
		rc.layer("wal.dir_bytes_per_triple", float64(dirBytes)/float64(want))
	}

	// The refinement probe: first snapshot after the writes, then the search.
	var snap *incr.Snapshot
	tr.nextOp()
	tr.do("incr.snapshot", func() { snap = b.engine.Snapshot() })
	layerMean(rc, tr, "incr.snapshot_s", "incr.snapshot")
	tr.do("refine.highest_theta", func() {
		_, err = refine.HighestTheta(snap.View, rules.CovRule(), rules.CovFunc(), 2, refine.SearchOptions{Workers: 1})
	})
	if err != nil {
		return err
	}
	layerMean(rc, tr, "refine.highest_theta_s", "refine.highest_theta")
	return nil
}

func scale(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}

// sigmaRead evaluates fn on the live aggregates the way the /sigma
// handler does, with a span named for the path taken.
func sigmaRead(tr *tracer, e incr.Engine, fnName string) error {
	fn, _, err := core.Builtin(fnName)
	if err != nil {
		return err
	}
	switch f := fn.(type) {
	case rules.CountsFunc:
		tr.do("incr.sigma_counts", func() { e.Sigma(f) })
	case rules.PairCountsFunc:
		tr.do("incr.sigma_pairs", func() { e.SigmaPairs(f) })
	default:
		return fmt.Errorf("%s reads neither counts nor pair counts", fnName)
	}
	return nil
}

func traceSigmaWide(rc *runCtx, tr *tracer) error {
	dir, err := rc.env.dir("trace-wide")
	if err != nil {
		return err
	}
	dump := filepath.Join(dir, "wide.nt")
	if err := rc.gen("wide", wideScale, dump); err != nil {
		return err
	}
	blocks, err := readBlocks(dump)
	if err != nil {
		return err
	}
	in := wideInputs(rc, blocks)
	engine := incr.NewSharded(2, incr.Options{})
	var base bytes.Buffer
	for _, b := range in.base {
		for _, l := range b.lines {
			base.WriteString(l)
			base.WriteByte('\n')
		}
	}
	if _, err := engine.AddNTriples(&base, 0); err != nil {
		return err
	}
	srv := serve.New(engine, serve.Options{RefineSWR: true, Logf: func(string, ...interface{}) {}})

	// Replay the request stream. A σ read goes through the
	// whole handler; when it missed the cache, the two layer calls that
	// block a miss are repeated on their own.
	var selfS, respBytes []float64
	for i := 0; i < traceSigmaOps; i++ {
		tr.nextOp()
		write, key, body, remove, group := in.next()
		if write {
			tr.do("serve.triples_json", func() { err = post(srv, body) })
			if err != nil {
				return err
			}
			in.churn.acked(remove, group)
			continue
		}
		var rec *httptest.ResponseRecorder
		id := tr.do("serve.sigma", func() { rec = call(srv, http.MethodGet, sigmaURL("", key), "", nil) })
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process GET /sigma?fn=%s: status %d", key, rec.Code)
		}
		respBytes = append(respBytes, float64(rec.Body.Len()))
		// The span is named once the verdict is known.
		tr.spans[id].Name = "serve.sigma_" + rec.Header().Get("X-Cache")
		if tr.spans[id].Name != "serve.sigma_miss" {
			continue
		}
		took := time.Duration(tr.spans[id].End - tr.spans[id].Start)
		layers := time.Now()
		tr.do("incr.stats", func() { engine.Stats() })
		if err := sigmaRead(tr, engine, key); err != nil {
			return err
		}
		selfS = append(selfS, (took - time.Since(layers)).Seconds())
	}
	layerMean(rc, tr, "serve.sigma_hit_s", "serve.sigma_hit")
	layerMean(rc, tr, "serve.sigma_miss_s", "serve.sigma_miss")
	layerMean(rc, tr, "serve.triples_json_s", "serve.triples_json")
	layerMean(rc, tr, "incr.stats_s", "incr.stats")
	layerMean(rc, tr, "incr.sigma_counts_s", "incr.sigma_counts")
	layerMean(rc, tr, "incr.sigma_pairs_s", "incr.sigma_pairs")
	rc.layer("serve.sigma_self_s", mean(selfS))
	rc.layer("serve.sigma_response_bytes", mean(respBytes))
	if miss, ok := tr.meanS("serve.sigma_miss"); ok {
		stats, _ := tr.meanS("incr.stats")
		rc.note("σ miss, blocking path: stats merge %.0f%%, server self (encode, cache, mux) %.0f%% of %.3f ms; the rest is the σ read",
			100*stats/miss, 100*mean(selfS)/miss, 1000*miss)
	}
	viewShape(rc, engine.Snapshot().View)
	return nil
}

func traceClusterMixed(rc *runCtx, tr *tracer) error {
	dir, err := rc.env.dir("trace-cluster")
	if err != nil {
		return err
	}
	dump := filepath.Join(dir, "persons.nt")
	if err := rc.gen("dbpedia", 0.01, dump); err != nil {
		return err
	}
	blocks, err := readBlocks(dump)
	if err != nil {
		return err
	}
	in := clusterInputs(rc, blocks, time.Duration(traceClusterOps)*time.Second/clusterRate)

	// Four durable workers on loopback listeners behind a coordinator,
	// as cmd/rdfserved -cluster-worker and cmd/rdfcoord build them.
	var groups [][]string
	var replicas [][]*durableEngine // by group
	for g := 0; g < 2; g++ {
		var urls []string
		var engines []*durableEngine
		for r := 0; r < 2; r++ {
			d, err := newDurableEngine(rc, fmt.Sprintf("trace-worker-g%dr%d", g, r), 1)
			if err != nil {
				return err
			}
			defer d.store.Close()
			ts := httptest.NewServer(d.server(true))
			defer ts.Close()
			urls = append(urls, ts.URL)
			engines = append(engines, d)
		}
		groups = append(groups, urls)
		replicas = append(replicas, engines)
	}
	coord, err := cluster.New(cluster.Topology{Groups: groups}, cluster.Options{Logf: func(string, ...interface{}) {}})
	if err != nil {
		return err
	}
	defer coord.Close()
	// One unsharded durable node with the same data: the yardstick for
	// what the cluster adds to a σ read, and where a write's barrier is
	// timed on its own.
	single, err := newDurableEngine(rc, "trace-single", 1)
	if err != nil {
		return err
	}
	defer single.store.Close()
	singleSrv := single.server(false)
	for _, b := range in.preload {
		if err := post(coord, b); err != nil {
			return err
		}
		if err := post(singleSrv, b); err != nil {
			return err
		}
	}

	var exportBytes []float64
	for _, op := range in.sched {
		tr.nextOp()
		switch op.kind {
		case opSigma:
			key := personKeys[op.arg]
			tr.do("cluster.sigma", func() {
				if rec := call(coord, http.MethodGet, sigmaURL("", key), "", nil); rec.Code != http.StatusOK {
					err = fmt.Errorf("in-process coordinator GET /sigma?fn=%s: status %d", key, rec.Code)
				}
			})
			if err != nil {
				return err
			}
			tr.do("serve.sigma_miss", func() { call(singleSrv, http.MethodGet, sigmaURL("", key)+"&nocache=1", "", nil) })
			// What the coordinator asks of one replica per group, and
			// what it then does with the answers.
			var exports []*incr.AggregateExport
			for _, group := range replicas {
				var e *incr.AggregateExport
				tr.do("incr.export_agg", func() { e = group[0].engine.(incr.AggregateExporter).ExportAggregates() })
				exportBytes = append(exportBytes, float64(len(e.AppendBinary(nil))))
				exports = append(exports, e)
			}
			tr.do("incr.merge_agg", func() { incr.MergeAggregateExports(exports) })
		case opWrite:
			b, remove, group := in.churn.at(op.arg)
			tr.do("cluster.triples", func() { err = post(coord, b) })
			if err != nil {
				return err
			}
			in.churn.acked(remove, group)
			var ts []rdf.Triple
			tr.do("rdf.parse_string", func() { ts, err = parseLines(in.churn.groups[group]) })
			if err != nil {
				return err
			}
			if remove {
				single.engine.Apply(nil, ts)
			} else {
				single.engine.Apply(ts, nil)
			}
			tr.do("wal.barrier", func() { err = single.store.Barrier() })
			if err != nil {
				return err
			}
		case opRefine:
			// What the coordinator's refine is made of, first, so that the
			// snapshot span is the one that builds the view after the last
			// write: fetch each group's view, merge, search.
			var views []*matrix.View
			for _, group := range replicas {
				var snap *incr.Snapshot
				tr.do("incr.snapshot", func() { snap = group[0].engine.Snapshot() })
				var wire []byte
				tr.do("matrix.encode_view", func() { wire = snap.View.AppendBinary(nil) })
				var v *matrix.View
				tr.do("matrix.decode_view", func() { v, err = matrix.DecodeView(wire) })
				if err != nil {
					return err
				}
				views = append(views, v)
			}
			var merged *matrix.View
			tr.do("matrix.merge_views", func() { merged, err = matrix.MergeViews(views...) })
			if err != nil {
				return err
			}
			tr.do("refine.highest_theta", func() {
				_, err = refine.HighestTheta(merged, rules.CovRule(), rules.CovFunc(), 2, refine.SearchOptions{Workers: 1})
			})
			if err != nil {
				return err
			}
			tr.do("cluster.refine", func() {
				if rec := call(coord, http.MethodGet, refineQuery, "", nil); rec.Code != http.StatusOK {
					err = fmt.Errorf("in-process coordinator GET /refine: status %d: %s", rec.Code, firstLine(rec.Body.Bytes()))
				}
			})
			if err != nil {
				return err
			}
		}
	}
	for metric, spanName := range map[string]string{
		"cluster.sigma_s":        "cluster.sigma",
		"cluster.triples_s":      "cluster.triples",
		"cluster.refine_s":       "cluster.refine",
		"serve.sigma_miss_s":     "serve.sigma_miss",
		"incr.export_agg_s":      "incr.export_agg",
		"incr.merge_agg_s":       "incr.merge_agg",
		"incr.snapshot_s":        "incr.snapshot",
		"matrix.encode_view_s":   "matrix.encode_view",
		"matrix.decode_view_s":   "matrix.decode_view",
		"matrix.merge_views_s":   "matrix.merge_views",
		"refine.highest_theta_s": "refine.highest_theta",
		"rdf.parse_string_s":     "rdf.parse_string",
		"wal.barrier_s":          "wal.barrier",
	} {
		layerMean(rc, tr, metric, spanName)
	}
	rc.layer("incr.agg_export_bytes", mean(exportBytes))
	if v, ok := p99(scale(tr.seconds("wal.barrier"), 1000)); ok {
		rc.layer("wal.barrier_p99_ms", v)
	}
	if c, ok := tr.meanS("cluster.sigma"); ok {
		s, _ := tr.meanS("serve.sigma_miss")
		rc.layer("cluster.sigma_overhead_ratio", c/s)
	}
	return nil
}
