package refine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ilp"
	"repro/internal/rules"
)

func TestEncodeStructure(t *testing.T) {
	v := aliveDeadView(t) // 2 signatures, 3 properties
	p := &Problem{View: v, Rule: rules.CovRule(), K: 2, Theta1: 1, Theta2: 1}
	enc, err := Encode(p, EncodeOptions{SymmetryBreaking: true})
	if err != nil {
		t.Fatal(err)
	}
	// X: k×|Λ| = 4, U: k×|P| = 6, T: k×|τ|. Cov has one variable, so τ
	// ranges over all (signature, property) pairs with positive count:
	// 2 × 3 = 6 → 12 T variables.
	wantVars := 4 + 6 + 12
	if enc.Model.NumVars() != wantVars {
		t.Fatalf("vars = %d, want %d", enc.Model.NumVars(), wantVars)
	}
	if len(enc.Taus) != 6 {
		t.Fatalf("taus = %d, want 6", len(enc.Taus))
	}
	// Every τ total must be positive and ≥ its favorable count.
	for i := range enc.Taus {
		if enc.Tot[i] <= 0 || enc.Fav[i] < 0 || enc.Fav[i] > enc.Tot[i] {
			t.Fatalf("τ %d: fav=%d tot=%d", i, enc.Fav[i], enc.Tot[i])
		}
	}
	// Symmetry breaking adds exactly k−1 hash constraints.
	symCount := 0
	for _, c := range enc.Model.Constraints() {
		if strings.HasPrefix(c.Name, "sym[") {
			symCount++
		}
	}
	if symCount != 1 {
		t.Fatalf("symmetry constraints = %d, want 1", symCount)
	}
}

// The cap is decided before any τ is counted, on exactly the k·|τ| it
// bounds: at k·|τ| − 1 the encoding is ErrTooLarge, and at k·|τ| and
// k·|τ| + 1 it is identical to the uncapped encoding.
func TestEncodeMaxTVars(t *testing.T) {
	p := &Problem{View: aliveDeadView(t), Rule: rules.CovRule(), K: 2, Theta1: 1, Theta2: 1}
	if _, err := Encode(p, EncodeOptions{MaxTVars: 3}); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	lp := func(enc *Encoding) string {
		var b strings.Builder
		if err := ilp.WriteLP(&b, enc.Model); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		rule := []*rules.Rule{rules.CovRule(), rules.SimRule(), rules.DepRule("p0", "p1")}[trial%3]
		p := &Problem{View: randomView(t, rng), Rule: rule, K: 1 + rng.Intn(3), Theta1: 1, Theta2: 2}
		full, err := Encode(p, EncodeOptions{SymmetryBreaking: true})
		if err != nil {
			t.Fatal(err)
		}
		n := p.K * len(full.Taus)
		for _, capVars := range []int{n - 1, n, n + 1} {
			if capVars == 0 {
				continue // 0 means no cap
			}
			enc, err := Encode(p, EncodeOptions{SymmetryBreaking: true, MaxTVars: capVars})
			if capVars < n {
				if err != ErrTooLarge {
					t.Fatalf("trial %d: cap %d < k·|τ| = %d gave err %v, want ErrTooLarge", trial, capVars, n, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d: cap %d ≥ k·|τ| = %d: %v", trial, capVars, n, err)
			}
			if !reflect.DeepEqual(enc.Taus, full.Taus) || !reflect.DeepEqual(enc.Tot, full.Tot) ||
				!reflect.DeepEqual(enc.Fav, full.Fav) || lp(enc) != lp(full) {
				t.Fatalf("trial %d: cap %d changed the encoding", trial, capVars)
			}
		}
	}
}

// An instance over the cap whose τ counts overflow int64 is reported
// as ErrTooLarge, so the auto engine still routes it to the heuristic;
// uncapped, it is the overflow error.
func TestEncodeCapPrecedesOverflow(t *testing.T) {
	huge := 1 << 40 // σSim's tot for two subjects of one set is ≈ 2⁸⁰
	v := mkView(t, []string{"p", "q"}, []string{"11", "10"}, []int{huge, huge})
	p := &Problem{View: v, Rule: rules.SimRule(), K: 2, Theta1: 1, Theta2: 2}
	if _, err := Encode(p, EncodeOptions{MaxTVars: 2}); err != ErrTooLarge {
		t.Fatalf("capped: err = %v, want ErrTooLarge", err)
	}
	if _, err := Encode(p, EncodeOptions{}); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("uncapped: err = %v, want a count overflow", err)
	}
}

func TestEncodeRequiresRule(t *testing.T) {
	v := aliveDeadView(t)
	p := &Problem{View: v, Func: rules.CovFunc(), K: 2, Theta1: 1, Theta2: 1}
	if _, err := Encode(p, EncodeOptions{}); err == nil {
		t.Fatal("encoding without a rule accepted")
	}
}

func TestDecodeAssignmentErrors(t *testing.T) {
	v := aliveDeadView(t)
	p := &Problem{View: v, Rule: rules.CovRule(), K: 2, Theta1: 1, Theta2: 1}
	enc, err := Encode(p, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, enc.Model.NumVars())
	// No placement at all.
	if _, err := enc.DecodeAssignment(vals); err == nil {
		t.Fatal("unplaced signature accepted")
	}
	// Double placement.
	vals[enc.X[0][0]] = 1
	vals[enc.X[1][0]] = 1
	vals[enc.X[0][1]] = 1
	if _, err := enc.DecodeAssignment(vals); err == nil {
		t.Fatal("double placement accepted")
	}
}

// The solver must respect the "closed under signatures" semantics: the
// decoded assignment moves whole signature sets, never single subjects.
// (Implicit in the encoding — X is indexed by signature — but asserted
// here as the Definition 4.2 invariant.)
func TestExactSolutionSignatureClosed(t *testing.T) {
	v := aliveDeadView(t)
	p := &Problem{View: v, Rule: rules.CovRule(), K: 2, Theta1: 1, Theta2: 1}
	ref, ok, err := SolveExact(p, EncodeOptions{}, ilp.Options{})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(ref.Assignment) != v.NumSignatures() {
		t.Fatalf("assignment length %d", len(ref.Assignment))
	}
	views, _ := ref.SortViews(v)
	total := 0
	for _, sv := range views {
		total += sv.NumSubjects()
	}
	if total != v.NumSubjects() {
		t.Fatalf("partition lost subjects: %d vs %d", total, v.NumSubjects())
	}
}

// The threshold inequality must use exact integer arithmetic: a ratio
// exactly at θ is feasible, one just below is not.
func TestEncodeThresholdExactness(t *testing.T) {
	// One signature with 3/4 coverage: σCov = 3/4 exactly (4 subjects,
	// each has 3 of 4 used properties? Construct: two signatures sharing
	// 4 props such that together Ones=6, N=2, used=4 → 6/8 = 3/4.
	v := mkView(t, []string{"a", "b", "c", "d"},
		[]string{"1110", "1101"}, []int{1, 1})
	p := &Problem{View: v, Rule: rules.CovRule(), K: 1, Theta1: 3, Theta2: 4}
	_, ok, err := SolveExact(p, EncodeOptions{}, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("σ exactly at threshold rejected")
	}
	p.Theta1, p.Theta2 = 30001, 40000 // one-in-40000 above 3/4
	_, ok, err = SolveExact(p, EncodeOptions{}, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("σ below threshold accepted")
	}
}

func TestLowestKDownwardMatchesUpward(t *testing.T) {
	v := mkView(t, []string{"a", "b", "c"},
		[]string{"100", "010", "001", "110"}, []int{5, 5, 5, 5})
	up, err := LowestK(v, rules.CovRule(), nil, 1, 1, SearchOptions{Engine: EngineExact})
	if err != nil {
		t.Fatal(err)
	}
	down, err := LowestK(v, rules.CovRule(), nil, 1, 1, SearchOptions{Engine: EngineExact, Downward: true})
	if err != nil {
		t.Fatal(err)
	}
	if up.K != down.K {
		t.Fatalf("upward k=%d, downward k=%d", up.K, down.K)
	}
	// Both witnesses must verify at θ=1.
	for _, out := range []*Outcome{up, down} {
		ok, err := Feasible(rules.CovFunc(), v, out.Refinement.Assignment, out.Refinement.K, 1, 1)
		if err != nil || !ok {
			t.Fatalf("witness fails: ok=%v err=%v", ok, err)
		}
	}
}

func TestHighestThetaHonorsEngineHeuristic(t *testing.T) {
	v := aliveDeadView(t)
	out, err := HighestTheta(v, rules.CovRule(), nil, 2, SearchOptions{Engine: EngineHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	// The perfect split is easy for the heuristic too.
	if out.Theta1 != 100 {
		t.Fatalf("heuristic highest θ = %d", out.Theta1)
	}
}

func TestMergeSeedProducesValidAssignment(t *testing.T) {
	v := mkView(t, []string{"a", "b", "c", "d"},
		[]string{"1100", "1110", "0011", "0111", "1000"}, []int{10, 8, 6, 4, 2})
	assign, err := mergeSeed(newGroupEval(rules.CovFunc(), v), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(assign) != 5 {
		t.Fatalf("assignment length %d", len(assign))
	}
	used := map[int]bool{}
	for _, s := range assign {
		if s < 0 || s >= 2 {
			t.Fatalf("sort %d out of range", s)
		}
		used[s] = true
	}
	if len(used) != 2 {
		t.Fatalf("merge seed used %d sorts, want 2", len(used))
	}
}
