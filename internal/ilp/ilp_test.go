package ilp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestModelBasics(t *testing.T) {
	m := &Model{}
	x := m.Binary("x")
	y := m.IntVar("y", 0, 5)
	if m.NumVars() != 2 || m.VarName(x) != "x" {
		t.Fatal("var bookkeeping wrong")
	}
	lo, hi := m.Bounds(y)
	if lo != 0 || hi != 5 {
		t.Fatal("bounds wrong")
	}
	m.Add("c", []Term{{x, 1}, {y, 2}, {x, 3}}, LE, 7) // merges x terms
	c := m.Constraints()[0]
	if len(c.Terms) != 2 {
		t.Fatalf("terms not merged: %v", c.Terms)
	}
	if err := m.Check([]int64{1, 1}); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if err := m.Check([]int64{1, 3}); err == nil {
		t.Fatal("violation not detected")
	}
	if err := m.Check([]int64{2, 0}); err == nil {
		t.Fatal("out-of-bounds not detected")
	}
	if m.AllBinary() {
		t.Fatal("AllBinary true with int var")
	}
}

func TestPBSimpleFeasible(t *testing.T) {
	m := &Model{}
	x := m.Binary("x")
	y := m.Binary("y")
	z := m.Binary("z")
	m.Add("sum2", []Term{{x, 1}, {y, 1}, {z, 1}}, EQ, 2)
	m.Add("xy", []Term{{x, 1}, {y, 1}}, LE, 1)
	res := SolvePB(m, Options{})
	if res.Status != StatusFeasible {
		t.Fatalf("status = %v", res.Status)
	}
	if err := m.Check(res.Values); err != nil {
		t.Fatal(err)
	}
	if res.Values[z] != 1 {
		t.Fatalf("z = %d, want 1 (forced)", res.Values[z])
	}
}

func TestPBInfeasible(t *testing.T) {
	m := &Model{}
	x := m.Binary("x")
	y := m.Binary("y")
	m.Add("a", []Term{{x, 1}, {y, 1}}, GE, 2)
	m.Add("b", []Term{{x, 1}, {y, 1}}, LE, 1)
	res := SolvePB(m, Options{})
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v", res.Status)
	}
}

// Pigeonhole: n+1 pigeons into n holes is infeasible — a classic
// stress test for backtracking completeness.
func TestPBPigeonhole(t *testing.T) {
	const holes = 4
	m := &Model{}
	vars := make([][]Var, holes+1)
	for p := range vars {
		vars[p] = make([]Var, holes)
		terms := make([]Term, holes)
		for h := 0; h < holes; h++ {
			vars[p][h] = m.Binary("")
			terms[h] = Term{vars[p][h], 1}
		}
		m.Add("pigeon", terms, EQ, 1)
	}
	for h := 0; h < holes; h++ {
		terms := make([]Term, holes+1)
		for p := 0; p <= holes; p++ {
			terms[p] = Term{vars[p][h], 1}
		}
		m.Add("hole", terms, LE, 1)
	}
	res := SolvePB(m, Options{})
	if res.Status != StatusInfeasible {
		t.Fatalf("pigeonhole status = %v", res.Status)
	}
}

func TestPBGraphColoring(t *testing.T) {
	// C5 (odd cycle) is 3-colorable but not 2-colorable.
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	build := func(k int) *Model {
		m := &Model{}
		x := make([][]Var, 5)
		for v := range x {
			x[v] = make([]Var, k)
			terms := make([]Term, k)
			for c := 0; c < k; c++ {
				x[v][c] = m.Binary("")
				terms[c] = Term{x[v][c], 1}
			}
			m.Add("one-color", terms, EQ, 1)
		}
		for _, e := range edges {
			for c := 0; c < k; c++ {
				m.Add("edge", []Term{{x[e[0]][c], 1}, {x[e[1]][c], 1}}, LE, 1)
			}
		}
		return m
	}
	if res := SolvePB(build(2), Options{}); res.Status != StatusInfeasible {
		t.Fatalf("C5 2-coloring: %v", res.Status)
	}
	res := SolvePB(build(3), Options{})
	if res.Status != StatusFeasible {
		t.Fatalf("C5 3-coloring: %v", res.Status)
	}
	if err := build(3).Check(res.Values); err != nil {
		t.Fatal(err)
	}
}

func TestPBDecisionLimit(t *testing.T) {
	// A hard infeasible instance with a tiny decision budget → Unknown.
	const holes = 8
	m := &Model{}
	vars := make([][]Var, holes+1)
	for p := range vars {
		vars[p] = make([]Var, holes)
		terms := make([]Term, holes)
		for h := 0; h < holes; h++ {
			vars[p][h] = m.Binary("")
			terms[h] = Term{vars[p][h], 1}
		}
		m.Add("pigeon", terms, GE, 1)
	}
	for h := 0; h < holes; h++ {
		terms := make([]Term, holes+1)
		for p := 0; p <= holes; p++ {
			terms[p] = Term{vars[p][h], 1}
		}
		m.Add("hole", terms, LE, 1)
	}
	res := SolvePB(m, Options{MaxDecisions: 5})
	if res.Status != StatusUnknown {
		t.Fatalf("status = %v, want unknown under budget", res.Status)
	}
}

func TestPBEmptyModel(t *testing.T) {
	m := &Model{}
	m.Binary("x")
	res := SolvePB(m, Options{})
	if res.Status != StatusFeasible {
		t.Fatalf("unconstrained model: %v", res.Status)
	}
}

func TestPBTrivialConstraints(t *testing.T) {
	m := &Model{}
	x := m.Binary("x")
	// 0·x ≥ 1 is unsatisfiable regardless of x.
	m.Add("zero", []Term{{x, 0}}, GE, 1)
	if res := SolvePB(m, Options{}); res.Status != StatusInfeasible {
		t.Fatalf("status %v", res.Status)
	}
	m2 := &Model{}
	y := m2.Binary("y")
	// 0·y ≥ 0 is vacuous.
	m2.Add("zero", []Term{{y, 0}}, GE, 0)
	if res := SolvePB(m2, Options{}); res.Status != StatusFeasible {
		t.Fatalf("status %v", res.Status)
	}
}

func TestPBLargeCoefficients(t *testing.T) {
	// Exercise int64-scale coefficients (as in θ-scaled counts).
	m := &Model{}
	x := m.Binary("x")
	y := m.Binary("y")
	m.Add("big", []Term{{x, 1 << 40}, {y, -(1 << 40)}}, GE, 1)
	res := SolvePB(m, Options{})
	if res.Status != StatusFeasible {
		t.Fatalf("status %v", res.Status)
	}
	if res.Values[x] != 1 || res.Values[y] != 0 {
		t.Fatalf("values %v", res.Values)
	}
}

// randomBinaryModel builds a small random 0/1 system.
func randomBinaryModel(rng *rand.Rand) *Model {
	m := &Model{}
	n := rng.Intn(8) + 2
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = m.Binary("")
	}
	nc := rng.Intn(8) + 1
	for c := 0; c < nc; c++ {
		var terms []Term
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				terms = append(terms, Term{vars[i], int64(rng.Intn(7) - 3)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
		rhs := int64(rng.Intn(9) - 4)
		m.Add("r", terms, sense, rhs)
	}
	return m
}

// bruteForce decides feasibility by enumerating all assignments.
func bruteForce(m *Model) bool {
	n := m.NumVars()
	vals := make([]int64, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			vals[i] = int64((mask >> i) & 1)
		}
		if m.Check(vals) == nil {
			return true
		}
	}
	return false
}

// Property: the PB solver agrees with brute force on random systems,
// and every feasible answer verifies.
func TestQuickPBMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomBinaryModel(rng)
		want := bruteForce(m)
		res := SolvePB(m, Options{})
		if res.Status == StatusUnknown {
			return false
		}
		got := res.Status == StatusFeasible
		if got != want {
			return false
		}
		if got {
			return m.Check(res.Values) == nil
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityAndPreferred(t *testing.T) {
	m := &Model{}
	x := m.Binary("x")
	y := m.Binary("y")
	m.Add("any", []Term{{x, 1}, {y, 1}}, GE, 1)
	m.SetPriority([]Var{y, x})
	m.SetPreferred(y, 1)
	res := SolvePB(m, Options{})
	if res.Status != StatusFeasible {
		t.Fatalf("status %v", res.Status)
	}
	if res.Values[y] != 1 {
		t.Fatalf("preferred value ignored: y=%d", res.Values[y])
	}
}

func BenchmarkPBColoring(b *testing.B) {
	// Random 3-colorable graph, 20 nodes.
	rng := rand.New(rand.NewSource(3))
	colorOf := make([]int, 20)
	for i := range colorOf {
		colorOf[i] = rng.Intn(3)
	}
	var edges [][2]int
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			if colorOf[i] != colorOf[j] && rng.Intn(3) == 0 {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		m := &Model{}
		x := make([][]Var, 20)
		for v := range x {
			x[v] = make([]Var, 3)
			terms := make([]Term, 3)
			for c := 0; c < 3; c++ {
				x[v][c] = m.Binary("")
				terms[c] = Term{x[v][c], 1}
			}
			m.Add("one", terms, EQ, 1)
		}
		for _, e := range edges {
			for c := 0; c < 3; c++ {
				m.Add("e", []Term{{x[e[0]][c], 1}, {x[e[1]][c], 1}}, LE, 1)
			}
		}
		if res := SolvePB(m, Options{}); res.Status != StatusFeasible {
			b.Fatal("infeasible")
		}
	}
}

func TestPBCancel(t *testing.T) {
	// Pre-closed cancel channel: the pigeonhole proof needs far more
	// than 64 decisions/conflicts, so the solver must give up with
	// Unknown at a poll point instead of completing the refutation.
	const holes = 8
	m := &Model{}
	vars := make([][]Var, holes+1)
	for p := range vars {
		vars[p] = make([]Var, holes)
		terms := make([]Term, holes)
		for h := 0; h < holes; h++ {
			vars[p][h] = m.Binary("")
			terms[h] = Term{vars[p][h], 1}
		}
		m.Add("pigeon", terms, GE, 1)
	}
	for h := 0; h < holes; h++ {
		terms := make([]Term, holes+1)
		for p := 0; p <= holes; p++ {
			terms[p] = Term{vars[p][h], 1}
		}
		m.Add("hole", terms, LE, 1)
	}
	closed := make(chan struct{})
	close(closed)
	if res := SolvePB(m, Options{Cancel: closed}); res.Status != StatusUnknown {
		t.Fatalf("cancelled SolvePB status = %v, want unknown", res.Status)
	}
	// Sanity: without cancellation the instance is proven infeasible.
	if res := SolvePB(m, Options{}); res.Status != StatusInfeasible {
		t.Fatalf("SolvePB status = %v, want infeasible", res.Status)
	}
}
