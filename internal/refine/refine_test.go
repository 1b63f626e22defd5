package refine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/ilp"
	"repro/internal/matrix"
	"repro/internal/rules"
)

func mkView(t testing.TB, props []string, rows []string, counts []int) *matrix.View {
	t.Helper()
	var sigs []matrix.Signature
	for i, r := range rows {
		b := bitset.New(len(props))
		for j := range r {
			if r[j] == '1' {
				b.Set(j)
			}
		}
		c := 1
		if counts != nil {
			c = counts[i]
		}
		sigs = append(sigs, matrix.Signature{Bits: b, Count: c})
	}
	v, err := matrix.New(props, sigs)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// aliveDeadView models the DBpedia-Persons shape in miniature: some
// signatures have "death" properties, others do not. Splitting along
// that line yields two perfectly-covered sorts.
func aliveDeadView(t testing.TB) *matrix.View {
	// props: name, birth, death
	return mkView(t,
		[]string{"name", "birth", "death"},
		[]string{"110", "111"},
		[]int{50, 30})
}

func TestEvalAssignment(t *testing.T) {
	v := aliveDeadView(t)
	// Identity: one sort.
	values, min, err := EvalAssignment(rules.CovFunc(), v, Assignment{0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if values[1].Value() != 1 { // empty sort is vacuous
		t.Fatalf("empty sort σ = %v", values[1].Value())
	}
	// Split: both sorts fully covered.
	_, min2, err := EvalAssignment(rules.CovFunc(), v, Assignment{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if min2 != 1 {
		t.Fatalf("split min σ = %v, want 1", min2)
	}
	if min >= min2 {
		t.Fatalf("identity min %v not below split min %v", min, min2)
	}
}

func TestFeasibleExactComparison(t *testing.T) {
	v := aliveDeadView(t)
	ok, err := Feasible(rules.CovFunc(), v, Assignment{0, 1}, 2, 1, 1)
	if err != nil || !ok {
		t.Fatalf("perfect split not feasible at θ=1: ok=%v err=%v", ok, err)
	}
	ok, err = Feasible(rules.CovFunc(), v, Assignment{0, 0}, 2, 1, 1)
	if err != nil || ok {
		t.Fatalf("identity feasible at θ=1: ok=%v err=%v", ok, err)
	}
}

func TestSolveExactFindsPerfectCovSplit(t *testing.T) {
	v := aliveDeadView(t)
	p := &Problem{View: v, Rule: rules.CovRule(), K: 2, Theta1: 1, Theta2: 1}
	ref, ok, err := SolveExact(p, EncodeOptions{SymmetryBreaking: true}, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no refinement found, want perfect split")
	}
	if ref.MinSigma != 1 {
		t.Fatalf("min σ = %v", ref.MinSigma)
	}
	if ref.Assignment[0] == ref.Assignment[1] {
		t.Fatalf("signatures not split: %v", ref.Assignment)
	}
}

func TestSolveExactInfeasible(t *testing.T) {
	// Three pairwise-incompatible signatures cannot reach σCov = 1 with
	// only 2 sorts.
	v := mkView(t, []string{"a", "b", "c"},
		[]string{"100", "010", "001"}, []int{5, 5, 5})
	p := &Problem{View: v, Rule: rules.CovRule(), K: 2, Theta1: 1, Theta2: 1}
	_, ok, err := SolveExact(p, EncodeOptions{SymmetryBreaking: true}, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("found refinement, want infeasible")
	}
	// With k = 3 it becomes feasible (one signature per sort).
	p.K = 3
	_, ok, err = SolveExact(p, EncodeOptions{SymmetryBreaking: true}, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("k=3 refinement not found")
	}
}

func TestSolveHeuristicMatchesExactOnPerfectSplit(t *testing.T) {
	v := aliveDeadView(t)
	p := &Problem{View: v, Rule: rules.CovRule(), K: 2, Theta1: 1, Theta2: 1}
	ref, ok, err := SolveHeuristic(p, HeuristicOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ok || ref.MinSigma != 1 {
		t.Fatalf("heuristic missed perfect split: ok=%v min=%v", ok, ref.MinSigma)
	}
}

// bruteForceFeasible enumerates every signature→sort assignment.
func bruteForceFeasible(t testing.TB, fn rules.Func, v *matrix.View, k int, th1, th2 int64) bool {
	n := v.NumSignatures()
	assign := make(Assignment, n)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			ok, err := Feasible(fn, v, assign, k, th1, th2)
			if err != nil {
				t.Fatal(err)
			}
			return ok
		}
		for s := 0; s < k; s++ {
			assign[i] = s
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// Proposition 6.1: the ILP instance is feasible iff a σr-sort
// refinement with threshold θ and at most k sorts exists. Cross-checked
// against brute force over all partitions for random small views,
// rules, k and θ.
func TestQuickProposition61(t *testing.T) {
	testRules := []*rules.Rule{
		rules.CovRule(),
		rules.SimRule(),
		rules.DepRule("p0", "p1"),
		rules.SymDepRule("p0", "p1"),
	}
	f := func(seed int64, ruleIdx, kRaw, thetaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := testRules[int(ruleIdx)%len(testRules)]
		k := int(kRaw)%3 + 1
		th1 := int64(thetaRaw % 101)
		nProps := rng.Intn(2) + 2
		props := make([]string, nProps)
		for i := range props {
			props[i] = "p" + string(rune('0'+i))
		}
		nSigs := rng.Intn(4) + 1
		rows := make([]string, nSigs)
		counts := make([]int, nSigs)
		for i := range rows {
			b := make([]byte, nProps)
			for j := range b {
				b[j] = byte('0' + rng.Intn(2))
			}
			rows[i] = string(b)
			counts[i] = rng.Intn(4) + 1
		}
		v := mkView(t, props, rows, counts)
		p := &Problem{View: v, Rule: r, K: k, Theta1: th1, Theta2: 100}
		_, ilpOK, err := SolveExact(p, EncodeOptions{SymmetryBreaking: rng.Intn(2) == 0}, ilp.Options{})
		if err != nil {
			t.Logf("encode/solve error: %v", err)
			return false
		}
		bfOK := bruteForceFeasible(t, p.EvalFunc(), v, k, th1, 100)
		if ilpOK != bfOK {
			t.Logf("mismatch: ilp=%v bf=%v rule=%s k=%d θ=%d/100 rows=%v counts=%v",
				ilpOK, bfOK, r, k, th1, rows, counts)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHighestThetaCovSplit(t *testing.T) {
	v := aliveDeadView(t)
	out, err := HighestTheta(v, rules.CovRule(), nil, 2, SearchOptions{Engine: EngineExact, Encode: EncodeOptions{SymmetryBreaking: true}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Theta1 != 100 {
		t.Fatalf("highest θ = %d/100, want 100/100", out.Theta1)
	}
	if out.Refinement.MinSigma != 1 {
		t.Fatalf("min σ = %v", out.Refinement.MinSigma)
	}
	if !out.Exact {
		t.Fatal("outcome not exact")
	}
}

// constFunc is a stub measure with the same σ on every view.
type constFunc struct{ fav, tot int64 }

func (c constFunc) Name() string { return "const" }
func (c constFunc) Eval(*matrix.View) (rules.Ratio, error) {
	return rules.NewRatio(c.fav, c.tot), nil
}

// HighestTheta starts at the exact ⌊σ(D)·step⌋. A float product lands
// below 29 for σ = 29/100 (an extra probe) and rounds up to 72 for a
// ratio just under 72/100 (a false witness).
func TestHighestThetaStartIsExactFloor(t *testing.T) {
	v := aliveDeadView(t)
	opts := SearchOptions{Engine: EngineHeuristic}
	for _, c := range []struct {
		fn        constFunc
		theta1    int64
		instances int
	}{
		{constFunc{29, 100}, 29, 1},
		{constFunc{5398726017373739, 7498230579685749}, 71, 1},
	} {
		out, err := HighestTheta(v, nil, c.fn, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if out.Theta1 != c.theta1 || out.Instances != c.instances {
			t.Errorf("σ = %d/%d: θ = %d/100 after %d probes, want %d/100 after %d",
				c.fn.fav, c.fn.tot, out.Theta1, out.Instances, c.theta1, c.instances)
		}
		if ok, _ := Feasible(c.fn, v, out.Refinement.Assignment, 2, out.Theta1, out.Theta2); !ok {
			t.Errorf("σ = %d/%d: reported refinement does not meet θ = %d/100", c.fn.fav, c.fn.tot, out.Theta1)
		}
	}
}

func TestLowestKCov(t *testing.T) {
	// Three incompatible signatures, θ=1 ⇒ k=3.
	v := mkView(t, []string{"a", "b", "c"},
		[]string{"100", "010", "001"}, []int{5, 5, 5})
	out, err := LowestK(v, rules.CovRule(), nil, 1, 1, SearchOptions{Engine: EngineExact, Encode: EncodeOptions{SymmetryBreaking: true}})
	if err != nil {
		t.Fatal(err)
	}
	if out.K != 3 {
		t.Fatalf("lowest k = %d, want 3", out.K)
	}
}

func TestLowestKUnreachable(t *testing.T) {
	// σSim of a diagonal view is 0 for every split finer than singleton
	// sorts; with MaxK = 1 and θ = 0.9 the search must fail.
	v := mkView(t, []string{"a", "b"}, []string{"10", "01"}, []int{5, 5})
	_, err := LowestK(v, rules.SimRule(), nil, 9, 10, SearchOptions{Engine: EngineExact, MaxK: 1})
	if err == nil {
		t.Fatal("expected failure at MaxK=1")
	}
}

func TestHeuristicEngineOnLargerView(t *testing.T) {
	// 20 signatures, clear two-cluster structure.
	rng := rand.New(rand.NewSource(42))
	props := []string{"a", "b", "c", "d", "e", "f"}
	var rows []string
	var counts []int
	for i := 0; i < 10; i++ {
		// Cluster 1: first three properties + noise bit.
		rows = append(rows, "111"+randBits(rng, 1)+"00")
		counts = append(counts, rng.Intn(50)+10)
		// Cluster 2: last three properties + noise bit.
		rows = append(rows, "00"+randBits(rng, 1)+"111")
		counts = append(counts, rng.Intn(50)+10)
	}
	v := mkView(t, props, rows, counts)
	p := &Problem{View: v, Rule: rules.CovRule(), K: 2, Theta1: 80, Theta2: 100}
	ref, _, err := SolveHeuristic(p, HeuristicOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	base := rules.Coverage(v).Value()
	if ref.MinSigma <= base {
		t.Fatalf("heuristic min σ %v did not improve on base %v", ref.MinSigma, base)
	}
}

func randBits(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + rng.Intn(2))
	}
	return string(b)
}

func TestRefinementSortViews(t *testing.T) {
	v := aliveDeadView(t)
	ref := &Refinement{Assignment: Assignment{1, 1}, K: 2}
	views, idx := ref.SortViews(v)
	if len(views) != 1 || idx[0] != 1 {
		t.Fatalf("views=%d idx=%v", len(views), idx)
	}
	if views[0].NumSubjects() != v.NumSubjects() {
		t.Fatal("subjects lost")
	}
}

func TestProblemValidate(t *testing.T) {
	v := aliveDeadView(t)
	bad := []*Problem{
		{View: nil, Rule: rules.CovRule(), K: 1, Theta2: 1},
		{View: v, Rule: rules.CovRule(), K: 0, Theta2: 1},
		{View: v, Rule: rules.CovRule(), K: 1, Theta1: 2, Theta2: 1},
		{View: v, K: 1, Theta2: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid problem", i)
		}
	}
	good := &Problem{View: v, Rule: rules.CovRule(), K: 1, Theta1: 1, Theta2: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
}

func BenchmarkSolveExactCovK2(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	props := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var rows []string
	var counts []int
	for i := 0; i < 16; i++ {
		rows = append(rows, randBits(rng, 8))
		counts = append(counts, rng.Intn(100)+1)
	}
	v := mkView(b, props, rows, counts)
	p := &Problem{View: v, Rule: rules.CovRule(), K: 2, Theta1: 60, Theta2: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveExact(p, EncodeOptions{SymmetryBreaking: true}, ilp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveHeuristicCovK4(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	props := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var rows []string
	var counts []int
	for i := 0; i < 40; i++ {
		rows = append(rows, randBits(rng, 8))
		counts = append(counts, rng.Intn(100)+1)
	}
	v := mkView(b, props, rows, counts)
	p := &Problem{View: v, Rule: rules.CovRule(), K: 4, Theta1: 80, Theta2: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveHeuristic(p, HeuristicOptions{Seed: int64(i), Restarts: 2, MaxIters: 30}); err != nil {
			b.Fatal(err)
		}
	}
}
