package refine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/matrix"
	"repro/internal/rules"
)

func TestInsertSortedAndRemove(t *testing.T) {
	g := []int{}
	for _, x := range []int{5, 1, 3} {
		g = insertSorted(g, x)
	}
	if len(g) != 3 || g[0] != 1 || g[1] != 3 || g[2] != 5 {
		t.Fatalf("insertSorted = %v", g)
	}
	g = remove(g, 3)
	if len(g) != 2 || g[0] != 1 || g[1] != 5 {
		t.Fatalf("remove = %v", g)
	}
	g = remove(g, 99) // absent element: no-op
	if len(g) != 2 {
		t.Fatalf("remove(absent) = %v", g)
	}
}

// Property: insertSorted keeps lists sorted and remove inverts it.
func TestQuickInsertRemove(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g []int
		seen := map[int]bool{}
		for i := 0; i < 30; i++ {
			x := rng.Intn(100)
			if seen[x] {
				continue
			}
			seen[x] = true
			g = insertSorted(g, x)
		}
		for i := 1; i < len(g); i++ {
			if g[i-1] >= g[i] {
				return false
			}
		}
		for x := range seen {
			g = remove(g, x)
		}
		return len(g) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The incremental search state must agree with a from-scratch
// re-evaluation after any sequence of moves, on both the counts-based
// delta path (Cov, Sim) and the generic subset-view path.
func TestSearchStateIncrementalConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	props := []string{"a", "b", "c", "d"}
	var sigs []matrix.Signature
	for i := 0; i < 10; i++ {
		b := bitset.New(4)
		for j := 0; j < 4; j++ {
			if rng.Intn(2) == 1 {
				b.Set(j)
			}
		}
		if b.Count() == 0 {
			b.Set(i % 4)
		}
		sigs = append(sigs, matrix.Signature{Bits: b, Count: rng.Intn(20) + 1})
	}
	v, err := matrix.New(props, sigs)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []rules.Func{
		rules.CovFunc(),                    // counts-based delta path
		rules.SimFunc(),                    // counts-based delta path
		rules.DepFunc("a", "b"),            // generic subset-view path
		rules.RuleFunc{R: rules.CovRule()}, // generic rough-assignment path
	} {
		t.Run(fn.Name(), func(t *testing.T) {
			k := 3
			assign := make(Assignment, v.NumSignatures())
			for i := range assign {
				assign[i] = rng.Intn(k)
			}
			ge := newGroupEval(fn, v)
			st, err := newSearchState(ge, assign.Clone(), k)
			if err != nil {
				t.Fatal(err)
			}
			// Perform random moves through the move path (evalRemove /
			// evalInsert / apply) and compare with EvalAssignment each time.
			for step := 0; step < 25; step++ {
				mu := rng.Intn(v.NumSignatures())
				b := rng.Intn(k)
				a := st.assign[mu]
				if a == b {
					continue
				}
				ga := remove(st.groups[a], mu)
				va, err := st.evalRemove(a, mu, ga)
				if err != nil {
					t.Fatal(err)
				}
				gb := insertSorted(st.groups[b], mu)
				vb, err := st.evalInsert(b, mu, gb)
				if err != nil {
					t.Fatal(err)
				}
				st.apply(mu, b, va, vb)

				values, min, err := EvalAssignment(fn, v, st.assign, k)
				if err != nil {
					t.Fatal(err)
				}
				sc := st.score()
				if diff := sc.min - min; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("step %d: incremental min %v != recomputed %v", step, sc.min, min)
				}
				sum := 0.0
				for s, g := range st.groups {
					if len(g) > 0 {
						want := values[s].Value()
						if diff := st.vals[s] - want; diff > 1e-12 || diff < -1e-12 {
							t.Fatalf("step %d: sort %d cached σ %v != recomputed %v", step, s, st.vals[s], want)
						}
						sum += st.vals[s]
					}
				}
				if diff := sc.sum - sum; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("step %d: sum drift", step)
				}
			}
		})
	}
}

func TestScoreOrdering(t *testing.T) {
	a := score{min: 0.9, sum: 1.8}
	b := score{min: 0.8, sum: 5.0}
	if !a.better(b) || b.better(a) {
		t.Fatal("min must dominate sum")
	}
	c := score{min: 0.9, sum: 2.0}
	if !c.better(a) {
		t.Fatal("sum must break min ties")
	}
	if a.better(a) {
		t.Fatal("score better than itself")
	}
}

func TestProfileSeedBounds(t *testing.T) {
	v := aliveDeadView(t)
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= 4; k++ {
		assign := profileSeed(v, k, rng)
		if len(assign) != v.NumSignatures() {
			t.Fatalf("k=%d: length %d", k, len(assign))
		}
		for _, s := range assign {
			if s < 0 || s >= k {
				t.Fatalf("k=%d: sort %d out of range", k, s)
			}
		}
	}
}

func TestGreedySeedRespectsK(t *testing.T) {
	v := mkView(t, []string{"a", "b", "c"},
		[]string{"100", "010", "001"}, []int{5, 5, 5})
	for k := 1; k <= 3; k++ {
		assign, err := greedySeed(newGroupEval(rules.CovFunc(), v), k)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range assign {
			if s < 0 || s >= k {
				t.Fatalf("k=%d: sort %d out of range", k, s)
			}
		}
		// With k=3 and three incompatible signatures, greedy must use all
		// three sorts (σ = 1 each).
		if k == 3 {
			used := map[int]bool{}
			for _, s := range assign {
				used[s] = true
			}
			if len(used) != 3 {
				t.Fatalf("greedy used %d sorts, want 3", len(used))
			}
		}
	}
}

// naiveMergeSeed is the reference O(n³)-evaluation agglomeration the
// cached mergeSeed must reproduce merge for merge: rescan every pair
// each round, score it from scratch on the merged subset, and take the
// first strictly-best pair in (i, j) scan order.
func naiveMergeSeed(ge *groupEval, k int) (Assignment, error) {
	n := ge.view.NumSignatures()
	groups := make([][]int, 0, n)
	for mu := 0; mu < n; mu++ {
		groups = append(groups, []int{mu})
	}
	for len(groups) > k {
		bestI, bestJ, bestVal := -1, -1, -1.0
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				val, err := ge.eval(mergeSorted(groups[i], groups[j]))
				if err != nil {
					return nil, err
				}
				if val > bestVal {
					bestVal = val
					bestI, bestJ = i, j
				}
			}
		}
		groups[bestI] = mergeSorted(groups[bestI], groups[bestJ])
		groups = append(groups[:bestJ], groups[bestJ+1:]...)
	}
	assign := make(Assignment, n)
	for s, g := range groups {
		for _, mu := range g {
			assign[mu] = s
		}
	}
	return assign, nil
}

// The score-matrix cache inside mergeSeed must not change a single
// merge decision: the cached values are the exact floats a rescan
// computes and the argmax scan order is unchanged, so the seed must be
// identical to the naive reference on every measure family and k.
func TestMergeSeedCacheMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	props := make([]string, 8)
	for i := range props {
		props[i] = fmt.Sprintf("p%d", i)
	}
	var sigs []matrix.Signature
	for i := 0; i < 26; i++ {
		b := bitset.New(len(props))
		for j := range props {
			if rng.Intn(3) == 0 {
				b.Set(j)
			}
		}
		if b.Count() == 0 {
			b.Set(i % len(props))
		}
		sigs = append(sigs, matrix.Signature{Bits: b, Count: rng.Intn(30) + 1})
	}
	v, err := matrix.New(props, sigs)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []rules.Func{
		rules.CovFunc(),                    // counts-based delta path
		rules.DepFunc("p0", "p1"),          // pair-counts path
		rules.RuleFunc{R: rules.CovRule()}, // generic subset-view path
	} {
		for _, k := range []int{1, 2, 5, 11} {
			ge := newGroupEval(fn, v)
			got, err := mergeSeed(ge, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", fn.Name(), k, err)
			}
			want, err := naiveMergeSeed(newGroupEval(fn, v), k)
			if err != nil {
				t.Fatalf("%s k=%d: naive: %v", fn.Name(), k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s k=%d: cached mergeSeed diverged\n got %v\nwant %v", fn.Name(), k, got, want)
			}
		}
	}
	// The 2 000-column view: groups' live-column lists are a tiny share
	// of |P|. The naive reference rescans O(n²) subset views per merge,
	// so only the first merges are compared.
	wide := datagen.WideSchema(datagen.WideAtScale(0.1, 1))
	n := wide.NumSignatures()
	for _, fn := range []rules.Func{
		rules.CovFunc(),
		rules.SimFunc(),
		rules.DepFunc(datagen.WideProp(0), datagen.WideProp(1)),
	} {
		for _, k := range []int{n - 6, n - 1} {
			got, err := mergeSeed(newGroupEval(fn, wide), k)
			if err != nil {
				t.Fatalf("wide %s k=%d: %v", fn.Name(), k, err)
			}
			want, err := naiveMergeSeed(newGroupEval(fn, wide), k)
			if err != nil {
				t.Fatalf("wide %s k=%d: naive: %v", fn.Name(), k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("wide %s k=%d: cached mergeSeed diverged\n got %v\nwant %v", fn.Name(), k, got, want)
			}
		}
	}
}

// One restart set decides any sequence of thresholds exactly as a fresh
// SolveHeuristic per threshold: in shuffled θ order, with and without
// the witness early exit, and after the caller has scribbled over every
// assignment it was handed (answers are copies, never the memo).
func TestRestartSetMatchesFreshSolveAtAnyTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 60; i++ {
		v := randomView(t, rng)
		props := v.Properties()
		p1, p2 := props[rng.Intn(len(props))], props[rng.Intn(len(props))]
		fn := []rules.Func{rules.CovFunc(), rules.SimFunc(), rules.DepFunc(p1, p2), rules.SymDepFunc(p1, p2)}[rng.Intn(4)]
		k := 1 + rng.Intn(3)
		opts := HeuristicOptions{Restarts: 1 + rng.Intn(8), MaxIters: 1 + rng.Intn(20), Seed: rng.Int63n(100), TargetEarlyExit: rng.Intn(4) > 0}
		rs := newRestartSet(&Problem{View: v, Func: fn, K: k}, opts)
		for _, theta := range rng.Perm(21) {
			p := &Problem{View: v, Func: fn, K: k, Theta1: int64(theta), Theta2: 20}
			got, gotOK, err := rs.solve(p)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK, err := SolveHeuristic(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || !reflect.DeepEqual(got.Assignment, want.Assignment) || got.MinSigma != want.MinSigma {
				t.Fatalf("case %d %s k=%d θ=%d/20: shared (%v, %v), fresh (%v, %v)",
					i, fn.Name(), k, theta, got.Assignment, gotOK, want.Assignment, wantOK)
			}
			for s := range got.Assignment {
				got.Assignment[s] = k
			}
		}
	}
}

// A local search cut short by Cancel leaves no optimum behind for a
// later threshold to reuse.
func TestRestartSetCancelMemoizesNoOptimum(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	p := &Problem{View: aliveDeadView(t), Func: rules.CovFunc(), K: 2, Theta1: 1, Theta2: 1}
	rs := newRestartSet(p, HeuristicOptions{Seed: 1, Cancel: closed})
	if _, _, _, err := rs.run(p, 0); err != ErrCanceled || rs.runs[0].assign != nil {
		t.Fatalf("cancelled restart: err=%v optimum=%v, want ErrCanceled and nothing memoized", err, rs.runs[0].assign)
	}
}
