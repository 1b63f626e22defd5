package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/incr"
	"repro/internal/matrix"
	"repro/internal/rdf"
	"repro/internal/refine"
	"repro/internal/rules"
	"repro/internal/wal"
)

// This file defines the ingest and refinement workloads shared by the
// root ablation benchmarks (bench_test.go) and cmd/benchjson, so the
// numbers recorded in BENCH_ingest.json / BENCH_refine.json measure
// exactly the code paths the benchmarks do.

// IngestCorpus serializes the DBpedia Persons generator output at the
// given scale to N-Triples — the ingest benchmark input. At scale 0.01
// this is ~7.9k subjects / ~50k triples.
func IngestCorpus(scale float64) []byte {
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, datagen.DBpediaPersonsGraph(scale)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// IngestInterned decodes an N-Triples corpus through the interning
// streaming decoder into an ID-based rdf.Graph and builds its view —
// the post-refactor ingest pipeline.
func IngestInterned(data []byte) (*matrix.View, int, error) {
	g := rdf.NewGraph()
	err := rdf.ReadNTriplesIDs(bytes.NewReader(data), g.Dict(), func(it rdf.IDTriple) error {
		g.AddID(it)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return matrix.FromGraph(g, matrix.Options{}), g.Len(), nil
}

// IngestString decodes the same corpus through the string decoder into
// the retained pre-refactor RefGraph and builds its view — the
// baseline the ablation compares against.
func IngestString(data []byte) (*matrix.View, int, error) {
	g := NewRefGraph()
	if err := rdf.ReadNTriples(bytes.NewReader(data), func(t rdf.Triple) error {
		g.Add(t)
		return nil
	}); err != nil {
		return nil, 0, err
	}
	return g.View(matrix.Options{}), g.Len(), nil
}

// IngestIncremental streams the corpus into an incremental dataset via
// the interned batch path and reads σCov once — the rdfserved raw-body
// ingest pipeline.
func IngestIncremental(data []byte, batch int) (int, error) {
	d := incr.NewDataset(incr.Options{})
	added, err := d.AddNTriples(bytes.NewReader(data), batch)
	if err != nil {
		return added, err
	}
	_ = d.SigmaCov()
	return added, nil
}

// IngestSharded streams the corpus into a sharded live engine (the
// rdfserved -shards path): one parse pass routing interned batches to
// per-shard ingest workers, then one merged σCov read. shards = 1
// exercises the unsharded delegation.
func IngestSharded(data []byte, batch, shards int) (int, error) {
	s := incr.NewSharded(shards, incr.Options{})
	added, err := s.AddNTriples(bytes.NewReader(data), batch)
	if err != nil {
		return added, err
	}
	_ = s.SigmaCov()
	return added, nil
}

// IngestDurable streams the corpus into an incremental dataset with a
// write-ahead log attached, mirroring the rdfserved -data-dir ingest
// path: parse, apply in batches, and await the durability barrier
// after every batch (exactly what POST /triples does before replying).
// fsync selects the group-commit policy — "none" disables the WAL
// entirely (the in-memory baseline), "off" logs without fsync, "batch"
// fsyncs per batch, and a duration ("10ms") group-commits on that
// interval. The WAL lives in a temp dir on the real filesystem so the
// fsyncs being ablated are real ones.
func IngestDurable(data []byte, batch int, fsync string) (int, error) {
	d := incr.NewDataset(incr.Options{})
	var store *wal.Store
	if fsync != "none" {
		mode, interval, err := wal.ParseSyncMode(fsync)
		if err != nil {
			return 0, err
		}
		dir, err := os.MkdirTemp("", "wal-bench-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		store, _, err = wal.Open(dir, d.Dict(), []*incr.Dataset{d}, wal.Options{
			Mode: mode, SyncInterval: interval,
		})
		if err != nil {
			return 0, err
		}
		defer store.Close()
	}
	added := 0
	pending := make([]rdf.Triple, 0, batch)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		n, _ := d.Apply(pending, nil)
		added += n
		pending = pending[:0]
		if store != nil {
			return store.Barrier()
		}
		return nil
	}
	if err := rdf.ReadNTriples(bytes.NewReader(data), func(t rdf.Triple) error {
		pending = append(pending, t)
		if len(pending) >= batch {
			return flush()
		}
		return nil
	}); err != nil {
		return added, err
	}
	if err := flush(); err != nil {
		return added, err
	}
	_ = d.SigmaCov()
	return added, nil
}

// RefineWorkload runs the Fig4a-class search (σCov highest-θ, k=2)
// with quick budgets on a DBpedia Persons view — the refinement
// trajectory benchmark behind BENCH_refine.json.
func RefineWorkload(scale float64) (*refine.Outcome, error) {
	v := datagen.DBpediaPersons(scale)
	opts := Config{Quick: true, Seed: 1}.search()
	out, err := refine.HighestTheta(v, rules.CovRule(), nil, 2, opts)
	if err != nil {
		return nil, fmt.Errorf("refine workload: %w", err)
	}
	return out, nil
}

// opaqueFunc hides a measure's incremental interfaces, forcing the
// search engine and evaluators onto their generic paths — the
// pre-compilation baseline of the compiled-evaluator ablation.
type opaqueFunc struct{ fn rules.Func }

func (o opaqueFunc) Name() string                             { return o.fn.Name() }
func (o opaqueFunc) Eval(v *matrix.View) (rules.Ratio, error) { return o.fn.Eval(v) }

// Opaque wraps fn so it exposes only Name and Eval.
func Opaque(fn rules.Func) rules.Func { return opaqueFunc{fn} }

// DepBenchProps are the DBpedia Persons generator properties used by
// the dependency-measure benchmarks (the Table 1 deathPlace→deathDate
// asymmetry pair).
var DepBenchProps = [2]string{datagen.PropDeathPlace, datagen.PropDeathDate}

// DepEvalScan evaluates σDep by the signature-scan closed form.
func DepEvalScan(v *matrix.View) rules.Ratio {
	return rules.Dep(v, DepBenchProps[0], DepBenchProps[1])
}

// DepEvalKernel evaluates σDep from the memoized pair-count aggregate.
func DepEvalKernel(v *matrix.View) rules.Ratio {
	fn := rules.DepFunc(DepBenchProps[0], DepBenchProps[1]).(rules.PairCountsFunc)
	return fn.EvalPairCounts(v.PropertyCounts(), v.PairCounts(), int64(v.NumSubjects()))
}

// RefineDepWorkload runs a fixed-budget σDep local search on the
// 64-signature DBpedia Persons generator view, with the pair-count
// kernels (baseline = false) or through the opaque scan-per-evaluation
// baseline (baseline = true). It returns the signature scans consumed,
// so callers can derive the scans-per-iteration ablation ratio.
func RefineDepWorkload(v *matrix.View, baseline bool) (int64, error) {
	fn := rules.DepFunc(DepBenchProps[0], DepBenchProps[1])
	if baseline {
		fn = Opaque(fn)
	}
	p := &refine.Problem{View: v, Func: fn, K: 3, Theta1: 99, Theta2: 100}
	before := rules.SignatureScans()
	_, _, err := refine.SolveHeuristic(p, refine.HeuristicOptions{Restarts: 4, MaxIters: 30, Seed: 1})
	if err != nil {
		return 0, fmt.Errorf("refine dep workload: %w", err)
	}
	return rules.SignatureScans() - before, nil
}

// DepRefineView builds a synthetic DBpedia-shaped view with the given
// column and signature counts — the |P| scaling axis of the
// compiled-evaluator ablation (the DBpedia Persons generator itself is
// fixed at 8 properties × 64 signatures). Signatures get random
// supports with paper-like density and Zipf-ish set sizes.
func DepRefineView(nProps, nSigs int, seed int64) *matrix.View {
	rng := rand.New(rand.NewSource(seed))
	props := make([]string, nProps)
	for i := range props {
		props[i] = fmt.Sprintf("p%03d", i)
	}
	// Ensure the benchmarked pair exists under its generator names.
	props[0], props[1] = DepBenchProps[0], DepBenchProps[1]
	sigs := make([]matrix.Signature, 0, nSigs)
	for i := 0; i < nSigs; i++ {
		b := bitset.New(nProps)
		for j := 0; j < nProps; j++ {
			if rng.Intn(3) != 0 {
				b.Set(j)
			}
		}
		if i%2 == 0 {
			b.Set(0)
		}
		if i%3 == 0 {
			b.Set(1)
		}
		sigs = append(sigs, matrix.Signature{Bits: b, Count: 1 + 1000/(i+1)})
	}
	v, err := matrix.New(props, sigs)
	if err != nil {
		panic(err)
	}
	return v
}
