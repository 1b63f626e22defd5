package repro

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/incr"
	"repro/internal/matrix"
	"repro/internal/rdf"
	"repro/internal/refine"
	"repro/internal/rules"
)

// One benchmark per paper artifact: running `go test -bench=.` at the
// repo root regenerates every table and figure (quick budgets; use
// cmd/paper for the full-budget runs recorded in EXPERIMENTS.md).

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := experiments.Config{Quick: true, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2DBpediaStats(b *testing.B)         { benchExperiment(b, "fig2") }
func BenchmarkFig3WordNetStats(b *testing.B)         { benchExperiment(b, "fig3") }
func BenchmarkFig4aCovK2(b *testing.B)               { benchExperiment(b, "fig4a") }
func BenchmarkFig4bSimK2(b *testing.B)               { benchExperiment(b, "fig4b") }
func BenchmarkFig4cSymDepK2(b *testing.B)            { benchExperiment(b, "fig4c") }
func BenchmarkFig5aCovTheta09(b *testing.B)          { benchExperiment(b, "fig5a") }
func BenchmarkFig5bSimTheta09(b *testing.B)          { benchExperiment(b, "fig5b") }
func BenchmarkTable1DepMatrix(b *testing.B)          { benchExperiment(b, "table1") }
func BenchmarkTable2SymDepRanking(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkFig6aWordNetCovK2(b *testing.B)        { benchExperiment(b, "fig6a") }
func BenchmarkFig6bWordNetSimK2(b *testing.B)        { benchExperiment(b, "fig6b") }
func BenchmarkFig7aWordNetLowestK(b *testing.B)      { benchExperiment(b, "fig7a") }
func BenchmarkFig7bWordNetLowestK(b *testing.B)      { benchExperiment(b, "fig7b") }
func BenchmarkFig8YagoScalability(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkSec74SemanticCorrectness(b *testing.B) { benchExperiment(b, "sec74") }

// BenchmarkILPEncodingRoundtrip covers experiment E14: encode a
// refinement instance into the paper's ILP form and solve it exactly.
func BenchmarkILPEncodingRoundtrip(b *testing.B) {
	v := datagen.DBpediaPersons(0.01)
	p := &refine.Problem{View: v, Rule: rules.CovRule(), K: 2, Theta1: 65, Theta2: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := refine.SolveExact(p, refine.EncodeOptions{SymmetryBreaking: true}, ilp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("expected feasible")
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// Signature-set compression vs. the raw per-subject matrix: the
// paper's key scalability lever. The signature evaluator enumerates
// (|Λ|·|P|)^n rough assignments; the raw evaluator enumerates
// (|S|·|P|)^n concrete assignments over the uncompressed matrix. Both
// are exact and agree (rules package tests); only a tiny dataset keeps
// the raw variant within benchmark time.
func BenchmarkAblationSignatureCompression(b *testing.B) {
	v := datagen.DBpediaPersons(0.0002) // ~160 subjects, 64 signatures
	b.Run("signatures", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rules.Evaluate(rules.SimRule(), v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw-subjects", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rules.EvalNaive(rules.SimRule(), v); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Generic rough-assignment evaluator vs. closed forms.
func BenchmarkAblationClosedFormVsGeneric(b *testing.B) {
	v := datagen.DBpediaPersons(0.01)
	b.Run("closed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = rules.Similarity(v)
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rules.Evaluate(rules.SimRule(), v); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Symmetry-breaking hash constraints on vs. off (Section 6.3).
func BenchmarkAblationSymmetryBreaking(b *testing.B) {
	// An infeasible instance: infeasibility proofs traverse the whole
	// symmetric search space, where the hash ordering is supposed to
	// help (Section 6.3).
	v := datagen.DBpediaPersons(0.002)
	idx := make([]int, 20)
	for i := range idx {
		idx[i] = i
	}
	p := &refine.Problem{View: v.Subset(idx), Rule: rules.CovRule(), K: 3, Theta1: 78, Theta2: 100}
	for _, sym := range []bool{true, false} {
		name := "off"
		if sym {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, ok, err := refine.SolveExact(p, refine.EncodeOptions{SymmetryBreaking: sym}, ilp.Options{MaxDecisions: 2_000_000})
				if err != nil {
					b.Fatal(err)
				}
				if ok {
					b.Fatal("expected infeasible")
				}
			}
		})
	}
}

// Sequential θ sweep (the paper's choice) vs. binary search over the
// same grid. The paper argues sequential wins because infeasible
// instances are far slower than feasible ones; binary search hits more
// of them.
func BenchmarkAblationThetaSearch(b *testing.B) {
	v := datagen.DBpediaPersons(0.01)
	opts := refine.SearchOptions{
		Heuristic: refine.HeuristicOptions{Restarts: 2, MaxIters: 40},
		Solver:    ilp.Options{MaxDecisions: 20_000},
		Encode:    refine.EncodeOptions{SymmetryBreaking: true, MaxTVars: 2_500},
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := refine.HighestTheta(v, rules.CovRule(), nil, 2, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo, hi := int64(54), int64(100) // base σCov to 1.0 on the 0.01 grid
			for lo < hi {
				mid := (lo + hi + 1) / 2
				p := &refine.Problem{View: v, Rule: rules.CovRule(), K: 2, Theta1: mid, Theta2: 100}
				_, ok, err := refine.SolveHeuristic(p, refine.HeuristicOptions{
					Restarts: 2, MaxIters: 40, TargetEarlyExit: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if ok {
					lo = mid
				} else {
					hi = mid - 1
				}
			}
		}
	})
}

// Interned term dictionary vs. string-keyed indexes: the full ingest
// pipeline (streaming N-Triples decode → graph build → view
// construction) on the DBpedia Persons corpus, run once through the
// ID-based hot path (zero-copy interning decoder, integer-keyed
// indexes, single-dictionary-pass view) and once through the retained
// pre-refactor string implementation (experiments.RefGraph). Both
// produce bit-identical views (equivalence_test.go); this measures the
// throughput and allocation gap, which should be ≥2× on ns/op and far
// larger on allocs/op. cmd/benchjson records the same workloads to
// BENCH_ingest.json.
func BenchmarkAblationInternedVsString(b *testing.B) {
	data := experiments.IngestCorpus(0.01)
	b.Run("interned", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := experiments.IngestInterned(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("string", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := experiments.IngestString(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.IngestIncremental(data, 10000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Incremental maintenance (internal/incr) vs. from-scratch rebuild:
// steady-state cost of one churn batch (add B triples, read σCov, take
// a snapshot view, retract the batch) against a preloaded DBpedia
// Persons dataset. The incremental engine pays O(touched subjects ·
// |P|) per batch plus an O(|Λ|·|P|) snapshot; the rebuild pays a full
// O(|D|) matrix.FromGraph scan regardless of batch size, which is the
// gap that makes rdfserved viable under live traffic.
func BenchmarkAblationIncrementalVsRebuild(b *testing.B) {
	base := datagen.DBpediaPersonsGraph(0.01)
	makeChurn := func(n int) []rdf.Triple {
		churn := make([]rdf.Triple, 0, n)
		for i := 0; i < n; i++ {
			churn = append(churn, rdf.Triple{
				Subject:   fmt.Sprintf("http://bench/churn/%d", i%2000),
				Predicate: fmt.Sprintf("http://bench/p%d", i%13),
				Object:    rdf.NewURI(fmt.Sprintf("http://bench/o%d", i)),
			})
		}
		return churn
	}
	for _, size := range []int{1, 100, 10000} {
		churn := makeChurn(size)
		b.Run(fmt.Sprintf("incremental/batch=%d", size), func(b *testing.B) {
			d := incr.FromGraph(base, incr.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Apply(churn, nil)
				_ = d.SigmaCov()
				_ = d.Snapshot()
				d.Apply(nil, churn)
			}
		})
		b.Run(fmt.Sprintf("rebuild/batch=%d", size), func(b *testing.B) {
			g := rdf.NewGraph()
			g.Merge(base)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, t := range churn {
					g.Add(t)
				}
				v := matrix.FromGraph(g, matrix.Options{})
				_ = rules.Coverage(v)
				for _, t := range churn {
					g.Remove(t)
				}
			}
		})
	}
}

// BenchmarkRefineDep is the compiled-evaluator acceptance benchmark: a
// σDep local search on the 64-signature DBpedia Persons generator,
// with the pair-count kernels (pairkernel) vs the scan-per-evaluation
// baseline. The sig-scans/op metric is the ablation's headline: the
// kernel path scans the signature list only for the final exact
// verification (2 scans per search), the baseline once per candidate
// move (~30k), a ≥10⁴× reduction with bit-identical assignments
// (pinned by refine's TestPairModeBitIdenticalToGenericSearch).
func BenchmarkRefineDep(b *testing.B) {
	v := datagen.DBpediaPersons(0.002)
	for _, mode := range []struct {
		name     string
		baseline bool
	}{{"pairkernel", false}, {"baseline", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var scans int64
			for i := 0; i < b.N; i++ {
				n, err := experiments.RefineDepWorkload(v, mode.baseline)
				if err != nil {
					b.Fatal(err)
				}
				scans += n
			}
			b.ReportMetric(float64(scans)/float64(b.N), "sig-scans/op")
		})
	}
}

// BenchmarkAblationDepRefineProps scales the σDep local search across
// |P| ∈ {8, 64, 256} on synthetic DBpedia-shaped views (64
// signatures), pair-count kernels vs the generic baseline — the
// compiled-evaluator ablation table in EXPERIMENTS.md.
func BenchmarkAblationDepRefineProps(b *testing.B) {
	for _, nProps := range []int{8, 64, 256} {
		v := experiments.DepRefineView(nProps, 64, 1)
		for _, mode := range []struct {
			name     string
			baseline bool
		}{{"pairkernel", false}, {"baseline", true}} {
			b.Run(fmt.Sprintf("props=%d/%s", nProps, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := experiments.RefineDepWorkload(v, mode.baseline); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCoverageIgnoring measures the σCov-ignoring closed form
// after the pooled scratch-slice rewrite: 4 allocs/op — only the
// returned big.Int Ratio — where the map-based implementation paid a
// map build plus a hashed lookup per column (2.5× slower; see
// EXPERIMENTS.md).
func BenchmarkCoverageIgnoring(b *testing.B) {
	v := experiments.DepRefineView(256, 64, 1)
	ignore := []string{v.Properties()[3], v.Properties()[100], "http://absent"}
	_ = rules.CoverageIgnoring(v, ignore...) // warm the memoized N_p and the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rules.CoverageIgnoring(v, ignore...)
	}
}

// The sparse/dense pair-count build crossover is measured inside
// internal/matrix (BenchmarkPairCountsBuild there forces each strategy
// explicitly, bypassing the sync.Once memoization); the numbers are
// recorded in EXPERIMENTS.md.

// BenchmarkShardedSigmaWide is the read-path ledger row for the sharded
// engine's merged read cut, on the sigma-wide benchmark's corpus shape
// (2 shards × 2 000 columns): σCov and σDep at a steady epoch — every
// read after the first reuses the epoch's cut — and the first read
// after a one-subject write, which rebuilds it (the write itself is
// not timed).
func BenchmarkShardedSigmaWide(b *testing.B) {
	s := incr.NewSharded(2, incr.Options{})
	s.Apply(datagen.WideSchemaGraph(datagen.WideAtScale(0.1, 1)).Triples(), nil)
	var churn []rdf.Triple
	for i := 0; i < 3; i++ {
		churn = append(churn, rdf.Triple{Subject: "http://bench/churn", Predicate: datagen.WideProp(i), Object: rdf.NewURI("http://bench/o")})
	}
	cov := rules.CovFunc().(rules.CountsFunc)
	dep := rules.DepFunc(datagen.WideProp(0), datagen.WideProp(1)).(rules.PairCountsFunc)
	reads := []struct {
		name string
		read func()
	}{
		{"cov", func() { _ = s.Sigma(cov) }},
		{"dep", func() { _, _ = s.SigmaPairs(dep) }},
	}
	for _, r := range reads {
		b.Run("steady/"+r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.read()
			}
		})
	}
	for _, r := range reads {
		b.Run("after-write/"+r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if i%2 == 0 {
					s.Apply(churn, nil)
				} else {
					s.Apply(nil, churn)
				}
				b.StartTimer()
				r.read()
			}
		})
	}
}
