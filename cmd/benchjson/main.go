// Command benchjson runs the perf-trajectory benchmarks — the ingest
// ablation (interned vs. string vs. incremental), the sharded-ingest
// scalability sweep (shards ∈ {1,2,4,8}), the refinement workload,
// the compiled σ-evaluator ablation (Dep eval and Dep refinement,
// scan vs pair-count kernel), the WAL durability ablation (ingest
// throughput vs fsync policy), and the wide-schema ablation (dense vs
// adaptive compressed signature containers on narrow and wide corpora)
// — and writes machine-readable results to BENCH_ingest.json,
// BENCH_shard.json, BENCH_refine.json, BENCH_eval.json, BENCH_wal.json
// and BENCH_wide.json. Each PR's CI run uploads the files as artifacts,
// so the throughput trend is diffable across commits without parsing
// `go test -bench` text.
//
// Usage:
//
//	go run ./cmd/benchjson                 # scale 0.01, write to .
//	go run ./cmd/benchjson -scale 0.002 -out artifacts/
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/matrix"
	"repro/internal/rdf"
	"repro/internal/rules"
)

// result is one benchmark measurement in the JSON artifact.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// artifact is the file layout shared by both outputs.
type artifact struct {
	Kind       string            `json:"kind"`
	Scale      float64           `json:"scale"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NumCPU     int               `json:"num_cpu"`
	Timestamp  string            `json:"timestamp"`
	Benchmarks []result          `json:"benchmarks"`
	Derived    map[string]string `json:"derived,omitempty"`
}

func measure(name string, bytes int64, fn func() error) (result, error) {
	var inner error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		if bytes > 0 {
			b.SetBytes(bytes)
		}
		for i := 0; i < b.N; i++ {
			if err := fn(); err != nil {
				inner = err
				b.Fatal(err)
			}
		}
	})
	if inner != nil {
		return result{}, fmt.Errorf("%s: %w", name, inner)
	}
	out := result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if bytes > 0 && r.NsPerOp() > 0 {
		// 10^6 bytes, matching `go test -bench` MB/s so the JSON is
		// directly comparable with benchmark text output.
		out.MBPerSec = float64(bytes) / float64(r.NsPerOp()) * 1e9 / 1e6
	}
	return out, nil
}

func writeArtifact(path string, a artifact) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run() error {
	scale := flag.Float64("scale", 0.01, "DBpedia Persons generator scale for the ingest corpus")
	wideScale := flag.Float64("widescale", 0.25, "wide-schema generator scale for the compressed-signature ablation")
	outDir := flag.String("out", ".", "directory for the BENCH_*.json artifacts")
	flag.Parse()

	now := time.Now().UTC().Format(time.RFC3339)
	meta := func(kind string) artifact {
		return artifact{
			Kind: kind, Scale: *scale,
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
			Timestamp: now,
		}
	}

	// --- Ingest: the interned-vs-string ablation plus the rdfserved
	// incremental path, all over the same serialized corpus.
	data := experiments.IngestCorpus(*scale)
	size := int64(len(data))
	ingest := meta("ingest")
	for _, c := range []struct {
		name string
		fn   func() error
	}{
		{"ingest/interned", func() error { _, _, err := experiments.IngestInterned(data); return err }},
		{"ingest/string", func() error { _, _, err := experiments.IngestString(data); return err }},
		{"ingest/incremental", func() error { _, err := experiments.IngestIncremental(data, 10000); return err }},
	} {
		r, err := measure(c.name, size, c.fn)
		if err != nil {
			return err
		}
		ingest.Benchmarks = append(ingest.Benchmarks, r)
		fmt.Printf("%-22s %12.0f ns/op %8.1f MB/s %9d allocs/op\n",
			c.name, r.NsPerOp, r.MBPerSec, r.AllocsPerOp)
	}
	if len(ingest.Benchmarks) >= 2 {
		sp := ingest.Benchmarks[1].NsPerOp / ingest.Benchmarks[0].NsPerOp
		al := float64(ingest.Benchmarks[1].AllocsPerOp) / float64(ingest.Benchmarks[0].AllocsPerOp)
		ingest.Derived = map[string]string{
			"interned_speedup_vs_string": fmt.Sprintf("%.2fx", sp),
			"interned_alloc_reduction":   fmt.Sprintf("%.2fx", al),
			"corpus_bytes":               fmt.Sprintf("%d", size),
		}
	}
	if err := writeArtifact(filepath.Join(*outDir, "BENCH_ingest.json"), ingest); err != nil {
		return err
	}

	// --- Shard: ingest scalability of the sharded live engine — the
	// same corpus streamed through the per-shard worker pool at shards
	// ∈ {1, 2, 4, 8}, triples/sec derived from the corpus byte rate.
	shard := meta("shard")
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		name := fmt.Sprintf("ingest/sharded/shards=%d", n)
		r, err := measure(name, size, func() error {
			_, err := experiments.IngestSharded(data, 10000, n)
			return err
		})
		if err != nil {
			return err
		}
		shard.Benchmarks = append(shard.Benchmarks, r)
		fmt.Printf("%-28s %12.0f ns/op %8.1f MB/s %9d allocs/op\n",
			name, r.NsPerOp, r.MBPerSec, r.AllocsPerOp)
	}
	if len(shard.Benchmarks) == 4 {
		shard.Derived = map[string]string{
			"shard_speedup_8_vs_1": fmt.Sprintf("%.2fx",
				shard.Benchmarks[0].NsPerOp/shard.Benchmarks[3].NsPerOp),
			"shard_speedup_4_vs_1": fmt.Sprintf("%.2fx",
				shard.Benchmarks[0].NsPerOp/shard.Benchmarks[2].NsPerOp),
			"corpus_bytes": fmt.Sprintf("%d", size),
		}
	}
	if err := writeArtifact(filepath.Join(*outDir, "BENCH_shard.json"), shard); err != nil {
		return err
	}

	// --- Refine: the Fig4a-class search.
	ref := meta("refine")
	const refineName = "refine/highesttheta/workers=1"
	r, err := measure(refineName, 0, func() error {
		_, err := experiments.RefineWorkload(*scale)
		return err
	})
	if err != nil {
		return err
	}
	ref.Benchmarks = append(ref.Benchmarks, r)
	fmt.Printf("%-34s %12.0f ns/op\n", refineName, r.NsPerOp)
	if err := writeArtifact(filepath.Join(*outDir, "BENCH_refine.json"), ref); err != nil {
		return err
	}

	// --- Eval: the compiled σ-evaluator trajectory — Dep evaluation via
	// signature scan vs pair-count kernel, and the Dep local search with
	// and without the compiled kernels, on the 64-signature DBpedia
	// Persons generator.
	evalArt := meta("eval")
	depView := datagen.DBpediaPersons(*scale)
	depView.PairCounts() // pay the one-time aggregate build outside the loop
	for _, c := range []struct {
		name string
		fn   func() error
	}{
		{"eval/dep/scan", func() error { _ = experiments.DepEvalScan(depView); return nil }},
		{"eval/dep/kernel", func() error { _ = experiments.DepEvalKernel(depView); return nil }},
	} {
		r, err := measure(c.name, 0, c.fn)
		if err != nil {
			return err
		}
		evalArt.Benchmarks = append(evalArt.Benchmarks, r)
		fmt.Printf("%-34s %12.0f ns/op %9d allocs/op\n", c.name, r.NsPerOp, r.AllocsPerOp)
	}
	var scans [2]int64
	for i, baseline := range []bool{false, true} {
		name := "refine/dep/pairkernel"
		if baseline {
			name = "refine/dep/baseline"
		}
		i := i
		baseline := baseline
		r, err := measure(name, 0, func() error {
			n, err := experiments.RefineDepWorkload(depView, baseline)
			scans[i] = n
			return err
		})
		if err != nil {
			return err
		}
		evalArt.Benchmarks = append(evalArt.Benchmarks, r)
		fmt.Printf("%-34s %12.0f ns/op %9d allocs/op\n", name, r.NsPerOp, r.AllocsPerOp)
	}
	if scans[0] > 0 {
		evalArt.Derived = map[string]string{
			"dep_search_scans_pairkernel": fmt.Sprintf("%d", scans[0]),
			"dep_search_scans_baseline":   fmt.Sprintf("%d", scans[1]),
			"dep_search_scan_reduction":   fmt.Sprintf("%.0fx", float64(scans[1])/float64(scans[0])),
		}
	}
	if err := writeArtifact(filepath.Join(*outDir, "BENCH_eval.json"), evalArt); err != nil {
		return err
	}

	// --- WAL: ingest durability ablation — the same batched ingest with
	// no WAL, a WAL that never fsyncs, a 10ms group-commit window, and a
	// fsync per batch. The spread is the price of each durability level.
	walArt := meta("wal")
	for _, mode := range []string{"none", "off", "10ms", "batch"} {
		mode := mode
		name := "ingest/durable/fsync=" + mode
		r, err := measure(name, size, func() error {
			_, err := experiments.IngestDurable(data, 10000, mode)
			return err
		})
		if err != nil {
			return err
		}
		walArt.Benchmarks = append(walArt.Benchmarks, r)
		fmt.Printf("%-28s %12.0f ns/op %8.1f MB/s %9d allocs/op\n",
			name, r.NsPerOp, r.MBPerSec, r.AllocsPerOp)
	}
	if len(walArt.Benchmarks) == 4 {
		base := walArt.Benchmarks[0].NsPerOp
		walArt.Derived = map[string]string{
			"wal_overhead_off":      fmt.Sprintf("%.2fx", walArt.Benchmarks[1].NsPerOp/base),
			"wal_overhead_10ms":     fmt.Sprintf("%.2fx", walArt.Benchmarks[2].NsPerOp/base),
			"wal_overhead_perbatch": fmt.Sprintf("%.2fx", walArt.Benchmarks[3].NsPerOp/base),
			"corpus_bytes":          fmt.Sprintf("%d", size),
		}
	}
	if err := writeArtifact(filepath.Join(*outDir, "BENCH_wal.json"), walArt); err != nil {
		return err
	}

	// --- Wide: the compressed-signature ablation — view build and
	// pair-aggregate build under forced-dense vs adaptive containers, on
	// the narrow paper corpus (where adaptive must cost nothing) and the
	// wide schema (where it must win). The derived block carries the
	// CI gates: σ must be bit-identical across representations, and the
	// wide signature storage must shrink by at least the paper target.
	wideArt := meta("wide")
	wideArt.Derived = map[string]string{"wide_scale": fmt.Sprintf("%g", *wideScale)}
	prevPolicy := bitset.CurrentPolicy()
	defer bitset.SetPolicy(prevPolicy)
	narrowG := datagen.DBpediaPersonsGraph(*scale)
	wideG := datagen.WideSchemaGraph(datagen.WideAtScale(*wideScale, 1))
	policies := []struct {
		name string
		pol  bitset.Policy
	}{
		{"dense", bitset.PolicyDense},
		{"adaptive", bitset.PolicyAdaptive},
	}
	views := map[string]*matrix.View{}
	for _, corpus := range []struct {
		name string
		g    *rdf.Graph
	}{{"narrow", narrowG}, {"wide", wideG}} {
		for _, p := range policies {
			name := fmt.Sprintf("build/%s/%s", corpus.name, p.name)
			bitset.SetPolicy(p.pol)
			var v *matrix.View
			r, err := measure(name, 0, func() error {
				v = matrix.FromGraph(corpus.g, matrix.Options{})
				return nil
			})
			if err != nil {
				return err
			}
			views[corpus.name+"/"+p.name] = v
			wideArt.Benchmarks = append(wideArt.Benchmarks, r)
			fmt.Printf("%-28s %12.0f ns/op %9d allocs/op\n", name, r.NsPerOp, r.AllocsPerOp)
		}
	}
	// Pair-aggregate build: plane vs plane on the narrow corpus (the
	// no-regression pin), CSR on the wide one. A fresh view is decoded
	// per iteration because the aggregate is built once per view; the
	// decode cost is identical across policies, so the ratio is
	// conservative. The wide dense plane (|P|² words) is exactly the
	// footprint this tier exists to avoid, so it is not built.
	narrowEnc := views["narrow/dense"].AppendBinary(nil)
	wideEnc := views["wide/dense"].AppendBinary(nil)
	for _, c := range []struct {
		name string
		pol  bitset.Policy
		enc  []byte
	}{
		{"pairs/narrow/dense", bitset.PolicyDense, narrowEnc},
		{"pairs/narrow/adaptive", bitset.PolicyAdaptive, narrowEnc},
		{"pairs/wide/csr", bitset.PolicyAdaptive, wideEnc},
	} {
		bitset.SetPolicy(c.pol)
		r, err := measure(c.name, 0, func() error {
			v, err := matrix.DecodeView(c.enc)
			if err != nil {
				return err
			}
			v.PairCounts()
			return nil
		})
		if err != nil {
			return err
		}
		wideArt.Benchmarks = append(wideArt.Benchmarks, r)
		fmt.Printf("%-28s %12.0f ns/op %9d allocs/op\n", c.name, r.NsPerOp, r.AllocsPerOp)
	}
	bitset.SetPolicy(prevPolicy)

	// σ invariance across representations, checked on the exact
	// rationals and the canonical encoding.
	wd, wa := views["wide/dense"], views["wide/adaptive"]
	sigmaIdentical := bytes.Equal(wideEnc, wa.AppendBinary(nil)) &&
		rules.Coverage(wd).String() == rules.Coverage(wa).String() &&
		rules.Similarity(wd).String() == rules.Similarity(wa).String()
	if p := wd.Properties(); len(p) >= 2 {
		sigmaIdentical = sigmaIdentical &&
			rules.Dep(wd, p[0], p[1]).String() == rules.Dep(wa, p[0], p[1]).String()
	}
	ds, as := wd.StorageStats(), wa.StorageStats()
	wideArt.Derived["sigma_identical"] = fmt.Sprintf("%v", sigmaIdentical)
	wideArt.Derived["mem_reduction"] = fmt.Sprintf("%.2f", float64(ds.SigBytes)/float64(as.SigBytes))
	wideArt.Derived["sig_bytes_dense"] = fmt.Sprintf("%d", ds.SigBytes)
	wideArt.Derived["sig_bytes_adaptive"] = fmt.Sprintf("%d", as.SigBytes)
	wideArt.Derived["view_bytes_dense"] = fmt.Sprintf("%d", wd.MemSize())
	wideArt.Derived["view_bytes_adaptive"] = fmt.Sprintf("%d", wa.MemSize())
	wideArt.Derived["sparse_sigs_adaptive"] = fmt.Sprintf("%d", as.SparseSigs)
	// The structural no-regression pin for narrow corpora: the adaptive
	// policy must keep every narrow signature dense, so the narrow read
	// path is byte-for-byte the pre-tier code path.
	wideArt.Derived["narrow_sparse_sigs"] = fmt.Sprintf("%d",
		views["narrow/adaptive"].StorageStats().SparseSigs)
	nb := wideArt.Benchmarks
	wideArt.Derived["wide_build_ratio"] = fmt.Sprintf("%.2f", nb[3].NsPerOp/nb[2].NsPerOp)
	wideArt.Derived["narrow_build_ratio"] = fmt.Sprintf("%.2f", nb[1].NsPerOp/nb[0].NsPerOp)
	wideArt.Derived["pair_build_ratio"] = fmt.Sprintf("%.2f", nb[5].NsPerOp/nb[4].NsPerOp)
	if err := writeArtifact(filepath.Join(*outDir, "BENCH_wide.json"), wideArt); err != nil {
		return err
	}
	fmt.Printf("wide: sigma_identical=%v mem_reduction=%sx (sig bytes %d -> %d, %d compressed sigs)\n",
		sigmaIdentical, wideArt.Derived["mem_reduction"], ds.SigBytes, as.SigBytes, as.SparseSigs)

	fmt.Printf("wrote %s, %s, %s, %s, %s and %s\n",
		filepath.Join(*outDir, "BENCH_ingest.json"),
		filepath.Join(*outDir, "BENCH_shard.json"),
		filepath.Join(*outDir, "BENCH_refine.json"),
		filepath.Join(*outDir, "BENCH_eval.json"),
		filepath.Join(*outDir, "BENCH_wal.json"),
		filepath.Join(*outDir, "BENCH_wide.json"))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
