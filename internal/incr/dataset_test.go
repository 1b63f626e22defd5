package incr

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/matrix"
	"repro/internal/rdf"
	"repro/internal/rules"
)

// assertViewsEqual checks bit-identity of two views: same property
// columns, same signature order, bits, counts and subject lists.
func assertViewsEqual(t *testing.T, label string, got, want *matrix.View) {
	t.Helper()
	if got.NumSubjects() != want.NumSubjects() {
		t.Fatalf("%s: subjects = %d, want %d", label, got.NumSubjects(), want.NumSubjects())
	}
	gp, wp := got.Properties(), want.Properties()
	if len(gp) != len(wp) {
		t.Fatalf("%s: properties = %v, want %v", label, gp, wp)
	}
	for i := range gp {
		if gp[i] != wp[i] {
			t.Fatalf("%s: property[%d] = %q, want %q", label, i, gp[i], wp[i])
		}
	}
	gs, ws := got.Signatures(), want.Signatures()
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d signatures, want %d", label, len(gs), len(ws))
	}
	for i := range gs {
		if gs[i].Bits.String() != ws[i].Bits.String() || gs[i].Count != ws[i].Count {
			t.Fatalf("%s: signature %d = %s×%d, want %s×%d",
				label, i, gs[i].Bits, gs[i].Count, ws[i].Bits, ws[i].Count)
		}
		if len(gs[i].Subjects) != len(ws[i].Subjects) {
			t.Fatalf("%s: signature %d has %d subjects, want %d",
				label, i, len(gs[i].Subjects), len(ws[i].Subjects))
		}
		for j := range gs[i].Subjects {
			if gs[i].Subjects[j] != ws[i].Subjects[j] {
				t.Fatalf("%s: signature %d subject %d = %q, want %q",
					label, i, j, gs[i].Subjects[j], ws[i].Subjects[j])
			}
		}
	}
}

// assertRatioEqual checks exact (big-int) equality of two ratios.
func assertRatioEqual(t *testing.T, label string, got, want rules.Ratio) {
	t.Helper()
	if got.Fav.Cmp(want.Fav) != 0 || got.Tot.Cmp(want.Tot) != 0 {
		t.Fatalf("%s: %s, want %s", label, got, want)
	}
}

// checkAgainstRebuild compares the incremental snapshot with a
// from-scratch matrix.FromGraph rebuild over the same alive triples.
func checkAgainstRebuild(t *testing.T, label string, d *Dataset, alive []rdf.Triple) {
	t.Helper()
	g := rdf.NewGraph()
	for _, tr := range alive {
		g.Add(tr)
	}
	want := matrix.FromGraph(g, matrix.Options{KeepSubjects: true})
	snap := d.Snapshot()
	assertViewsEqual(t, label, snap.View, want)
	assertRatioEqual(t, label+" σCov", d.SigmaCov(), rules.Coverage(want))
	assertRatioEqual(t, label+" σSim", d.SigmaSim(), rules.Similarity(want))
	// The live pair-count tracker must agree with the rebuilt view for
	// dependency measures over present, repeated and absent properties.
	props := want.Properties()
	pairs := [][2]string{{"http://never/seen", "http://never/seen2"}}
	if len(props) > 0 {
		p1, p2 := props[0], props[len(props)-1]
		pairs = append(pairs, [2]string{p1, p2}, [2]string{p2, p1}, [2]string{p1, p1}, [2]string{p1, "http://never/seen"})
	}
	for _, pp := range pairs {
		for _, fn := range []rules.Func{
			rules.DepFunc(pp[0], pp[1]),
			rules.SymDepFunc(pp[0], pp[1]),
			rules.DepDisjFunc(pp[0], pp[1]),
		} {
			got, live := d.SigmaPairs(fn.(rules.PairCountsFunc))
			if !live {
				t.Fatalf("%s: pair tracking unexpectedly off", label)
			}
			wantR, err := fn.Eval(want)
			if err != nil {
				t.Fatal(err)
			}
			assertRatioEqual(t, fmt.Sprintf("%s live %s", label, fn.Name()), got, wantR)
		}
	}
}

// TestIncrementalEquivalenceRandomized drives a seeded interleaving of
// add/remove batches over generator-derived and synthetic triples and
// asserts, at checkpoints, that the incremental snapshot is
// bit-identical to a batch rebuild — signatures, σCov, σSim.
func TestIncrementalEquivalenceRandomized(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// Triple pool: a real generator graph (structured signatures,
			// rdf:type churn) plus synthetic triples over tight alphabets
			// (forces property retirement/revival and multi-valued
			// predicates).
			pool := datagen.MixedDrugSultans(datagen.MixedOptions{
				DrugCompanies: 10, Sultans: 8, SparseSultans: 3, Seed: seed,
			}).Triples()
			for i := 0; i < 300; i++ {
				s := fmt.Sprintf("http://syn/s%d", rng.Intn(20))
				p := fmt.Sprintf("http://syn/p%d", rng.Intn(6))
				o := fmt.Sprintf("http://syn/o%d", rng.Intn(4))
				tr := rdf.Triple{Subject: s, Predicate: p, Object: rdf.NewURI(o)}
				if rng.Intn(5) == 0 {
					tr = rdf.Triple{Subject: s, Predicate: rdf.TypeURI, Object: rdf.NewURI(o)}
				}
				pool = append(pool, tr)
			}

			d := NewDataset(Options{KeepSubjects: true})
			var alive []rdf.Triple
			aliveIdx := map[rdf.Triple]int{}
			for batch := 0; batch < 60; batch++ {
				var add, remove []rdf.Triple
				n := 1 + rng.Intn(25)
				for i := 0; i < n; i++ {
					if len(alive) > 0 && rng.Intn(3) == 0 {
						remove = append(remove, alive[rng.Intn(len(alive))])
					} else {
						add = append(add, pool[rng.Intn(len(pool))])
					}
				}
				d.Apply(add, remove)
				// Mirror the dataset's semantics: adds first, then removes.
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
					checkAgainstRebuild(t, fmt.Sprintf("batch %d", batch), d, alive)
				}
			}
			// Drain to empty and check the degenerate state too.
			d.Apply(nil, alive)
			checkAgainstRebuild(t, "drained", d, nil)
			st := d.Stats()
			if st.Triples != 0 || st.Subjects != 0 || st.Signatures != 0 || st.Properties != 0 {
				t.Fatalf("drained stats = %+v", st)
			}
		})
	}
}

// TestFromGraphMatchesBatch checks the preloaded constructor against
// FromGraph on a generator dataset, before and after removing every
// triple of a few subjects.
func TestFromGraphMatchesBatch(t *testing.T) {
	g := datagen.WordNetNounsGraph(0.002)
	d := FromGraph(g, Options{KeepSubjects: true})
	alive := append([]rdf.Triple(nil), g.Triples()...)
	checkAgainstRebuild(t, "preload", d, alive)

	// Retire two subjects entirely.
	victims := map[string]bool{}
	for _, s := range g.Subjects()[:2] {
		victims[s] = true
	}
	var remove, rest []rdf.Triple
	for _, tr := range alive {
		if victims[tr.Subject] {
			remove = append(remove, tr)
		} else {
			rest = append(rest, tr)
		}
	}
	d.Apply(nil, remove)
	checkAgainstRebuild(t, "after subject retirement", d, rest)
}

// TestSnapshotImmutableAcrossEpochs pins copy-on-write: a snapshot
// taken before a batch is unchanged by it, and epochs advance only on
// effective mutations.
func TestSnapshotImmutableAcrossEpochs(t *testing.T) {
	d := NewDataset(Options{})
	d.Apply([]rdf.Triple{
		{Subject: "s1", Predicate: "p", Object: rdf.NewURI("o")},
		{Subject: "s2", Predicate: "q", Object: rdf.NewURI("o")},
	}, nil)
	s1 := d.Snapshot()
	if s1.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", s1.Epoch)
	}
	if got := d.Snapshot(); got != s1 {
		t.Fatal("unchanged dataset rebuilt its snapshot")
	}
	// A no-op batch (duplicate add, absent remove) keeps the epoch.
	d.Apply([]rdf.Triple{{Subject: "s1", Predicate: "p", Object: rdf.NewURI("o")}},
		[]rdf.Triple{{Subject: "zz", Predicate: "p", Object: rdf.NewURI("o")}})
	if got := d.Snapshot(); got != s1 {
		t.Fatal("no-op batch invalidated the snapshot")
	}
	before := s1.View.Describe(10)
	d.Apply([]rdf.Triple{{Subject: "s3", Predicate: "p", Object: rdf.NewURI("o")}}, nil)
	s2 := d.Snapshot()
	if s2.Epoch != 2 || s2 == s1 {
		t.Fatalf("epoch = %d (snap aliased: %v)", s2.Epoch, s2 == s1)
	}
	if s1.View.Describe(10) != before {
		t.Fatal("old snapshot mutated by later batch")
	}
	if s1.View.NumSubjects() != 2 || s2.View.NumSubjects() != 3 {
		t.Fatalf("subjects: old %d new %d", s1.View.NumSubjects(), s2.View.NumSubjects())
	}
}

// TestConcurrentReadersDuringIngestion hammers Apply from a writer
// goroutine while readers take snapshots and σ values; run under -race
// this is the data-race acceptance check.
func TestConcurrentReadersDuringIngestion(t *testing.T) {
	d := NewDataset(Options{KeepSubjects: true})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		var alive []rdf.Triple
		for i := 0; i < 400; i++ {
			var add, remove []rdf.Triple
			for j := 0; j < 10; j++ {
				tr := rdf.Triple{
					Subject:   fmt.Sprintf("s%d", rng.Intn(40)),
					Predicate: fmt.Sprintf("p%d", rng.Intn(8)),
					Object:    rdf.NewURI(fmt.Sprintf("o%d", rng.Intn(5))),
				}
				if len(alive) > 0 && rng.Intn(3) == 0 {
					remove = append(remove, alive[rng.Intn(len(alive))])
				} else {
					add = append(add, tr)
					alive = append(alive, tr)
				}
			}
			d.Apply(add, remove)
		}
		close(stop)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := d.Snapshot()
				if snap.View.NumSubjects() < 0 {
					t.Error("negative subjects")
				}
				_ = d.SigmaCov()
				_ = d.SigmaSim()
				_ = d.Stats()
			}
		}()
	}
	wg.Wait()
	// Final state must still agree with a rebuild.
	checkAgainstRebuild(t, "post-concurrency", d, d.gTriples())
}

// gTriples returns the live triples (test helper).
func (d *Dataset) gTriples() []rdf.Triple {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.g.Triples()
}

// Disabling the pair tracker must route SigmaPairs callers to the
// snapshot fallback.
func TestDisablePairCounts(t *testing.T) {
	d := NewDataset(Options{DisablePairCounts: true})
	d.Apply([]rdf.Triple{
		{Subject: "http://s1", Predicate: "http://p1", Object: rdf.NewURI("http://o")},
		{Subject: "http://s1", Predicate: "http://p2", Object: rdf.NewURI("http://o")},
	}, nil)
	if d.PairsTracked() {
		t.Fatal("PairsTracked should be false")
	}
	fn := rules.DepFunc("http://p1", "http://p2").(rules.PairCountsFunc)
	if _, live := d.SigmaPairs(fn); live {
		t.Fatal("SigmaPairs should report not-live when disabled")
	}
	// The snapshot path still answers.
	got, err := rules.DepFunc("http://p1", "http://p2").Eval(d.Snapshot().View)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value() != 1 {
		t.Fatalf("snapshot Dep = %v, want 1", got)
	}
}
