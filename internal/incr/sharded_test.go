package incr

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/matrix"
	"repro/internal/rdf"
	"repro/internal/refine"
	"repro/internal/rules"
)

// shardCounts is the invariance axis: the same stream must produce
// identical merged state at every point of it.
var shardCounts = []int{1, 2, 4, 8}

// streamPool builds the mixed triple pool the invariance suites draw
// from: generator triples (structured signatures, rdf:type churn) plus
// synthetic triples over tight alphabets (property retirement/revival,
// multi-valued predicates, subjects colliding across shards).
func streamPool(seed int64) []rdf.Triple {
	rng := rand.New(rand.NewSource(seed))
	pool := datagen.MixedDrugSultans(datagen.MixedOptions{
		DrugCompanies: 10, Sultans: 8, SparseSultans: 3, Seed: seed,
	}).Triples()
	for i := 0; i < 300; i++ {
		s := fmt.Sprintf("http://syn/s%d", rng.Intn(24))
		p := fmt.Sprintf("http://syn/p%d", rng.Intn(6))
		o := fmt.Sprintf("http://syn/o%d", rng.Intn(4))
		tr := rdf.Triple{Subject: s, Predicate: p, Object: rdf.NewURI(o)}
		if rng.Intn(5) == 0 {
			tr = rdf.Triple{Subject: s, Predicate: rdf.TypeURI, Object: rdf.NewURI(o)}
		}
		pool = append(pool, tr)
	}
	return pool
}

// assertEnginesAgree checks that every engine's merged state is
// bit-identical to the n=1 reference AND to a from-scratch rebuild:
// snapshot views (signature multisets, subject lists), σCov/σSim, the
// dependency measures over live pair counts, and the merged Stats.
func assertEnginesAgree(t *testing.T, label string, engines []Engine, alive []rdf.Triple) {
	t.Helper()
	g := rdf.NewGraph()
	for _, tr := range alive {
		g.Add(tr)
	}
	want := matrix.FromGraph(g, matrix.Options{KeepSubjects: true})
	ref := engines[0].Stats()
	for i, e := range engines {
		lbl := fmt.Sprintf("%s shards=%d", label, shardCounts[i])
		snap := e.Snapshot()
		assertViewsEqual(t, lbl, snap.View, want)
		assertRatioEqual(t, lbl+" σCov", e.SigmaCov(), rules.Coverage(want))
		assertRatioEqual(t, lbl+" σSim", e.SigmaSim(), rules.Similarity(want))
		props := want.Properties()
		pairs := [][2]string{{"http://never/seen", "http://never/seen2"}}
		if len(props) > 1 {
			p1, p2 := props[0], props[len(props)-1]
			pairs = append(pairs, [2]string{p1, p2}, [2]string{p2, p1}, [2]string{p1, p1}, [2]string{p1, "http://never/seen"})
		}
		for _, pp := range pairs {
			for _, fn := range []rules.Func{
				rules.DepFunc(pp[0], pp[1]),
				rules.SymDepFunc(pp[0], pp[1]),
				rules.DepDisjFunc(pp[0], pp[1]),
			} {
				got, live := e.SigmaPairs(fn.(rules.PairCountsFunc))
				if !live {
					t.Fatalf("%s: pair tracking unexpectedly off", lbl)
				}
				wantR, err := fn.Eval(want)
				if err != nil {
					t.Fatal(err)
				}
				assertRatioEqual(t, fmt.Sprintf("%s live %s", lbl, fn.Name()), got, wantR)
			}
		}
		st := e.Stats()
		if st.Triples != ref.Triples || st.Subjects != ref.Subjects ||
			st.Properties != ref.Properties || st.Signatures != ref.Signatures ||
			st.Added != ref.Added || st.Removed != ref.Removed {
			t.Fatalf("%s: stats %+v, want (mod epoch/terms) %+v", lbl, st, ref)
		}
		if st.Triples != g.Len() || st.Subjects != g.SubjectCount() {
			t.Fatalf("%s: stats %+v disagree with rebuild (%d triples, %d subjects)",
				lbl, st, g.Len(), g.SubjectCount())
		}
	}
}

// TestShardCountInvariance applies one randomized add/remove stream to
// engines at shards ∈ {1, 2, 4, 8} and asserts, at checkpoints, that
// the merged σ ratios (counts and pair measures), signature multisets
// and subject lists are identical across shard counts and identical to
// a batch rebuild — the exactness pin for subject-disjoint sharding.
// At the end, the same refinement search runs on every engine's merged
// snapshot and must produce identical outcomes.
func TestShardCountInvariance(t *testing.T) {
	for _, seed := range []int64{2, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			pool := streamPool(seed)
			engines := make([]Engine, len(shardCounts))
			for i, n := range shardCounts {
				if n == 1 {
					engines[i] = NewDataset(Options{KeepSubjects: true})
				} else {
					engines[i] = NewSharded(n, Options{KeepSubjects: true})
				}
			}
			rng := rand.New(rand.NewSource(seed * 31))
			var alive []rdf.Triple
			aliveIdx := map[rdf.Triple]int{}
			for batch := 0; batch < 40; batch++ {
				var add, remove []rdf.Triple
				n := 1 + rng.Intn(25)
				for i := 0; i < n; i++ {
					if len(alive) > 0 && rng.Intn(3) == 0 {
						remove = append(remove, alive[rng.Intn(len(alive))])
					} else {
						add = append(add, pool[rng.Intn(len(pool))])
					}
				}
				var wantAdd, wantRem = -1, -1
				for _, e := range engines {
					a, r := e.Apply(add, remove)
					if wantAdd == -1 {
						wantAdd, wantRem = a, r
					} else if a != wantAdd || r != wantRem {
						t.Fatalf("batch %d: applied (%d,%d), want (%d,%d)", batch, a, r, wantAdd, wantRem)
					}
				}
				for _, tr := range add {
					if _, ok := aliveIdx[tr]; !ok {
						aliveIdx[tr] = len(alive)
						alive = append(alive, tr)
					}
				}
				for _, tr := range remove {
					if i, ok := aliveIdx[tr]; ok {
						last := alive[len(alive)-1]
						alive[i] = last
						aliveIdx[last] = i
						alive = alive[:len(alive)-1]
						delete(aliveIdx, tr)
					}
				}
				if batch%10 == 9 {
					assertEnginesAgree(t, fmt.Sprintf("batch %d", batch), engines, alive)
				}
			}

			// Identical refinement outcomes on the merged snapshots: same
			// lowest k, same assignment, same per-sort σ values.
			// Quick fixed budgets: identical inputs give identical searches,
			// which is all the invariance pin needs.
			opts := refine.SearchOptions{
				Engine:    refine.EngineHeuristic,
				Heuristic: refine.HeuristicOptions{Seed: 7, Restarts: 2, MaxIters: 25},
			}
			var ref *refine.Outcome
			for i, e := range engines {
				out, err := refine.LowestK(e.Snapshot().View, nil, rules.CovFunc(), 9, 10, opts)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = out
					continue
				}
				if out.K != ref.K {
					t.Fatalf("shards=%d: k = %d, want %d", shardCounts[i], out.K, ref.K)
				}
				if (out.Refinement == nil) != (ref.Refinement == nil) {
					t.Fatalf("shards=%d: refinement presence differs", shardCounts[i])
				}
				if out.Refinement != nil {
					if out.Refinement.MinSigma != ref.Refinement.MinSigma {
						t.Fatalf("shards=%d: minSigma = %v, want %v",
							shardCounts[i], out.Refinement.MinSigma, ref.Refinement.MinSigma)
					}
					if fmt.Sprint(out.Refinement.Assignment) != fmt.Sprint(ref.Refinement.Assignment) {
						t.Fatalf("shards=%d: assignment %v, want %v",
							shardCounts[i], out.Refinement.Assignment, ref.Refinement.Assignment)
					}
				}
			}

			// Drain every engine to empty through the same remove stream.
			for _, e := range engines {
				e.Apply(nil, alive)
			}
			assertEnginesAgree(t, "drained", engines, nil)
		})
	}
}

// TestShardStreamInvariance streams the same N-Triples document through
// every shard count's worker pool (the rdfserved raw-body path) and
// checks merged-state identity, including against AddStream on string
// triples.
func TestShardStreamInvariance(t *testing.T) {
	g := datagen.MixedDrugSultans(datagen.MixedOptions{
		DrugCompanies: 15, Sultans: 10, SparseSultans: 5, Seed: 3,
	})
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	alive := g.Triples()

	engines := make([]Engine, len(shardCounts))
	for i, n := range shardCounts {
		if n == 1 {
			engines[i] = NewDataset(Options{KeepSubjects: true})
		} else {
			engines[i] = NewSharded(n, Options{KeepSubjects: true})
		}
		// Small batches force multi-batch routing through the pool.
		added, err := engines[i].AddNTriples(bytes.NewReader(data), 64)
		if err != nil {
			t.Fatal(err)
		}
		if added != len(alive) {
			t.Fatalf("shards=%d: added %d, want %d", n, added, len(alive))
		}
	}
	assertEnginesAgree(t, "stream", engines, alive)

	// The string-triple stream path must land in the same state.
	s := NewSharded(4, Options{KeepSubjects: true})
	added, err := s.AddStream(50, func(emit func(rdf.Triple) error) error {
		for _, tr := range alive {
			if err := emit(tr); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil || added != len(alive) {
		t.Fatalf("AddStream: added %d, err %v", added, err)
	}
	assertViewsEqual(t, "addstream", s.Snapshot().View, engines[0].Snapshot().View)
}

// TestShardedConcurrentIngest is the -race acceptance check: parallel
// writers on overlapping subject spaces, raw-NT streams, and readers
// taking merged snapshots, σ and stats, all at once. The final state
// must equal a batch rebuild of the union triple set.
func TestShardedConcurrentIngest(t *testing.T) {
	s := NewSharded(4, Options{KeepSubjects: true})
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	seen := make(map[rdf.Triple]struct{})
	var seenMu sync.Mutex
	record := func(trs []rdf.Triple) {
		seenMu.Lock()
		for _, tr := range trs {
			seen[tr] = struct{}{}
		}
		seenMu.Unlock()
	}

	// Batch writers: overlapping subject alphabets so shard routing and
	// dedup both get exercised.
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 80; i++ {
				var add []rdf.Triple
				for j := 0; j < 12; j++ {
					add = append(add, rdf.Triple{
						Subject:   fmt.Sprintf("http://c/s%d", rng.Intn(60)),
						Predicate: fmt.Sprintf("http://c/p%d", rng.Intn(7)),
						Object:    rdf.NewURI(fmt.Sprintf("http://c/o%d", rng.Intn(5))),
					})
				}
				record(add)
				s.Apply(add, nil)
			}
		}(w)
	}
	// A raw-NT stream writer through the worker pool.
	writers.Add(1)
	go func() {
		defer writers.Done()
		var sb strings.Builder
		var trs []rdf.Triple
		for i := 0; i < 500; i++ {
			tr := rdf.Triple{
				Subject:   fmt.Sprintf("http://nt/s%d", i%80),
				Predicate: fmt.Sprintf("http://nt/p%d", i%5),
				Object:    rdf.NewURI(fmt.Sprintf("http://nt/o%d", i%3)),
			}
			trs = append(trs, tr)
			fmt.Fprintf(&sb, "<%s> <%s> <%s> .\n", tr.Subject, tr.Predicate, tr.Object.Value)
		}
		record(trs)
		if _, err := s.AddNTriples(strings.NewReader(sb.String()), 32); err != nil {
			t.Error(err)
		}
	}()
	// Readers against the live merged state.
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				if snap.View.NumSubjects() < 0 {
					t.Error("negative subjects")
				}
				_ = s.SigmaCov()
				_ = s.SigmaSim()
				if _, live := s.SigmaPairs(rules.DepFunc("http://c/p0", "http://c/p1").(rules.PairCountsFunc)); !live {
					t.Error("pair tracking off")
				}
				_ = s.Stats()
				_ = s.ShardStats()
				_ = s.Epoch()
				// Pause between polls: spinning on all-shard read cuts
				// convoys the writers and only re-reads the same epoch.
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	alive := make([]rdf.Triple, 0, len(seen))
	for tr := range seen {
		alive = append(alive, tr)
	}
	g := rdf.NewGraph()
	for _, tr := range alive {
		g.Add(tr)
	}
	want := matrix.FromGraph(g, matrix.Options{KeepSubjects: true})
	assertViewsEqual(t, "post-concurrency", s.Snapshot().View, want)
	assertRatioEqual(t, "post-concurrency σCov", s.SigmaCov(), rules.Coverage(want))
	st := s.Stats()
	if st.Triples != g.Len() || st.Subjects != g.SubjectCount() {
		t.Fatalf("stats %+v, want %d triples / %d subjects", st, g.Len(), g.SubjectCount())
	}
	sum := 0
	for _, ss := range s.ShardStats() {
		sum += ss.Triples
	}
	if sum != st.Triples {
		t.Fatalf("shard triples sum %d != merged %d", sum, st.Triples)
	}
}

// TestShardedSingleDelegates pins that a 1-shard engine is the plain
// Dataset code path: its snapshot is the inner dataset's snapshot
// object, not a merged copy.
func TestShardedSingleDelegates(t *testing.T) {
	s := NewSharded(1, Options{})
	s.Apply([]rdf.Triple{{Subject: "s", Predicate: "p", Object: rdf.NewURI("o")}}, nil)
	if got, want := s.Snapshot(), s.shards[0].Snapshot(); got != want {
		t.Fatal("single-shard snapshot is not the inner dataset's snapshot")
	}
	if s.Epoch() != s.shards[0].Epoch() {
		t.Fatal("single-shard epoch diverges")
	}
}

// TestShardedDisablePairCounts routes SigmaPairs callers to the
// snapshot fallback, as on the single dataset.
func TestShardedDisablePairCounts(t *testing.T) {
	s := NewSharded(3, Options{DisablePairCounts: true})
	s.Apply([]rdf.Triple{
		{Subject: "http://s1", Predicate: "http://p1", Object: rdf.NewURI("http://o")},
		{Subject: "http://s2", Predicate: "http://p2", Object: rdf.NewURI("http://o")},
	}, nil)
	if s.PairsTracked() {
		t.Fatal("PairsTracked should be false")
	}
	fn := rules.DepFunc("http://p1", "http://p2").(rules.PairCountsFunc)
	if _, live := s.SigmaPairs(fn); live {
		t.Fatal("SigmaPairs should report not-live when disabled")
	}
	if got := s.Snapshot().View.NumSubjects(); got != 2 {
		t.Fatalf("snapshot subjects = %d, want 2", got)
	}
}
