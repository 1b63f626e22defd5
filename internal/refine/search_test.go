package refine

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ilp"
	"repro/internal/matrix"
	"repro/internal/rules"
)

// A pre-closed Cancel aborts every engine in both strategies with
// ErrCanceled and no outcome: a search that decided nothing must not
// report a threshold or a sort count, let alone an exact one.
func TestCancelAbortsSearch(t *testing.T) {
	// σCov < 1, so HighestTheta has probes to run; θ = 0.9 needs k = 3.
	v := mkView(t, []string{"p", "q", "r", "t"},
		[]string{"1100", "0010", "1111"}, []int{20, 20, 50})
	closed := make(chan struct{})
	close(closed)

	p := &Problem{View: v, Func: rules.CovFunc(), K: 2, Theta1: 95, Theta2: 100}
	ref, ok, err := SolveHeuristic(p, HeuristicOptions{Restarts: 4, MaxIters: 1000, Seed: 1, Cancel: closed})
	if err != nil || ok || ref != nil {
		t.Fatalf("cancelled SolveHeuristic = (%v, %v, %v), want no witness and no error", ref, ok, err)
	}

	searches := map[string]func(SearchOptions) (*Outcome, error){
		"highesttheta k=2": func(o SearchOptions) (*Outcome, error) { return HighestTheta(v, rules.CovRule(), nil, 2, o) },
		"lowestk θ=0.9":    func(o SearchOptions) (*Outcome, error) { return LowestK(v, rules.CovRule(), nil, 90, 100, o) },
	}
	for name, engine := range map[string]Engine{"auto": EngineAuto, "exact": EngineExact, "heuristic": EngineHeuristic} {
		opts := SearchOptions{
			Engine:    engine,
			Heuristic: HeuristicOptions{Restarts: 4, MaxIters: 1000, Seed: 1},
			Encode:    EncodeOptions{SymmetryBreaking: true},
			Cancel:    closed,
		}
		for mode, search := range searches {
			t.Run(name+"/"+mode, func(t *testing.T) {
				if out, err := search(opts); !errors.Is(err, ErrCanceled) || out != nil {
					t.Fatalf("cancelled search = (%+v, %v), want (nil, ErrCanceled)", out, err)
				}
			})
		}
	}
}

// The auto engine proves an instance infeasible that the local search
// cannot decide.
func TestAutoProvesInfeasible(t *testing.T) {
	// Three pairwise-incompatible signatures cannot reach σCov = 1 with
	// only 2 sorts — exactly decidable, heuristically unprovable.
	v := mkView(t, []string{"a", "b", "c"},
		[]string{"100", "010", "001"}, []int{5, 5, 5})
	p := &Problem{View: v, Rule: rules.CovRule(), K: 2, Theta1: 1, Theta2: 1}
	opts := &SearchOptions{
		Engine:    EngineAuto,
		Heuristic: HeuristicOptions{Restarts: 2, MaxIters: 20, Seed: 1},
		Encode:    EncodeOptions{SymmetryBreaking: true},
	}
	opts.defaults()
	_, ok, proven, err := decide(p, opts, newRestartSet(p, opts.Heuristic))
	if err != nil {
		t.Fatal(err)
	}
	if ok || !proven {
		t.Fatalf("auto verdict ok=%v proven=%v, want proven infeasible", ok, proven)
	}
}

// freshSweep is HighestTheta with every grid point decided by a fresh
// local search (a new restart set per decide), through the same
// auto/exact logic: the reference the shared-restart sweep must match.
func freshSweep(view *matrix.View, rule *rules.Rule, fn rules.Func, k int, opts SearchOptions) (*Outcome, error) {
	opts.defaults()
	evalFn := (&Problem{Rule: rule, Func: fn}).EvalFunc()
	base, err := evalFn.Eval(view)
	if err != nil {
		return nil, err
	}
	t1 := opts.ThetaStep
	if base.Tot.Sign() != 0 {
		q := new(big.Int).Mul(base.Fav, big.NewInt(opts.ThetaStep))
		t1 = q.Div(q, base.Tot).Int64()
	}
	identity := make(Assignment, view.NumSignatures())
	values, min, err := EvalAssignment(evalFn, view, identity, k)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Refinement: &Refinement{Assignment: identity, K: k, Values: values, MinSigma: min, Exact: true},
		Theta1:     t1, Theta2: opts.ThetaStep, K: k, Exact: true,
	}
	for theta := t1 + 1; theta <= opts.ThetaStep; theta++ {
		p := &Problem{View: view, Rule: rule, Func: evalFn, K: k, Theta1: theta, Theta2: opts.ThetaStep}
		ref, ok, proven, err := decide(p, &opts, newRestartSet(p, opts.Heuristic))
		if err != nil {
			return nil, err
		}
		out.Instances++
		if !ok {
			out.Exact = out.Exact && proven
			break
		}
		out.Refinement, out.Theta1 = ref, theta
	}
	return out, nil
}

// sameOutcome fails unless two outcomes agree on θ, instance count,
// exactness, assignment and every per-sort ratio, numerator and
// denominator alike.
func sameOutcome(t *testing.T, what string, got, want *Outcome) {
	t.Helper()
	g, w := got.Refinement, want.Refinement
	if got.Theta1 != want.Theta1 || got.Theta2 != want.Theta2 || got.Instances != want.Instances || got.Exact != want.Exact {
		t.Fatalf("%s: θ=%d/%d instances=%d exact=%v, fresh sweep θ=%d/%d instances=%d exact=%v", what,
			got.Theta1, got.Theta2, got.Instances, got.Exact, want.Theta1, want.Theta2, want.Instances, want.Exact)
	}
	if !reflect.DeepEqual(g.Assignment, w.Assignment) || g.Exact != w.Exact || g.MinSigma != w.MinSigma {
		t.Fatalf("%s: refinement %v (exact %v, min %v), fresh sweep %v (exact %v, min %v)", what,
			g.Assignment, g.Exact, g.MinSigma, w.Assignment, w.Exact, w.MinSigma)
	}
	for i := range w.Values {
		gv, wv := g.Values[i], w.Values[i]
		if gv.Fav.Cmp(wv.Fav) != 0 || gv.Tot.Cmp(wv.Tot) != 0 {
			t.Fatalf("%s: sort %d σ %v, fresh sweep %v", what, i, gv, wv)
		}
	}
}

// randomView draws 3–12 signatures of 1–30 subjects over 2–6
// properties, each signature with at least one property.
func randomView(t *testing.T, rng *rand.Rand) *matrix.View {
	t.Helper()
	nProps, nSigs := 2+rng.Intn(5), 3+rng.Intn(10)
	props := make([]string, nProps)
	rows := make([]string, nSigs)
	counts := make([]int, nSigs)
	for j := range props {
		props[j] = fmt.Sprintf("p%d", j)
	}
	for s := range rows {
		row := []byte(randBits(rng, nProps))
		row[rng.Intn(nProps)] = '1'
		rows[s], counts[s] = string(row), 1+rng.Intn(30)
	}
	return mkView(t, props, rows, counts)
}

// Restarts read only view, measure and k, never θ, so sharing them
// across a θ sweep changes no answer: HighestTheta matches a sweep that
// decides every grid point from scratch, on the paper's datasets and on
// seeded random views.
func TestHighestThetaSharedRestartsMatchFreshSweep(t *testing.T) {
	persons := datagen.DBpediaPersons(0.01)
	dep := rules.DepRule(datagen.PropDeathPlace, datagen.PropDeathDate)
	for _, c := range []struct {
		name string
		v    *matrix.View
		rule *rules.Rule
		k    int
		opts SearchOptions
	}{
		{"persons-cov-k2", persons, rules.CovRule(), 2, SearchOptions{}},
		{"persons-cov-k3", persons, rules.CovRule(), 3, SearchOptions{}},
		{"persons-dep-k2", persons, dep, 2, SearchOptions{}},
		{"nouns-cov-k2-budget50k", datagen.WordNetNouns(0.01), rules.CovRule(), 2,
			SearchOptions{Solver: ilp.Options{MaxDecisions: 50_000}}},
	} {
		got, err := HighestTheta(c.v, c.rule, nil, c.k, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshSweep(c.v, c.rule, nil, c.k, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, c.name, got, want)
	}

	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 300; i++ {
		v := randomView(t, rng)
		props := v.Properties()
		p1, p2 := props[rng.Intn(len(props))], props[rng.Intn(len(props))]
		rule := []*rules.Rule{rules.CovRule(), rules.SimRule(), rules.DepRule(p1, p2), rules.SymDepRule(p1, p2)}[rng.Intn(4)]
		k := 1 + rng.Intn(3)
		opts := SearchOptions{
			Engine:    []Engine{EngineAuto, EngineHeuristic}[rng.Intn(2)],
			Heuristic: HeuristicOptions{Restarts: 1 + rng.Intn(8), MaxIters: 1 + rng.Intn(50), Seed: rng.Int63n(100)},
		}
		before := Restarts()
		got, err := HighestTheta(v, rule, nil, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n := Restarts() - before; n > int64(opts.Heuristic.Restarts) {
			t.Fatalf("case %d: %d restarts for one answer, budget %d", i, n, opts.Heuristic.Restarts)
		}
		want, err := freshSweep(v, rule, nil, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, fmt.Sprintf("case %d (%s k=%d engine=%d)", i, rule, k, opts.Engine), got, want)
	}
}

// Work pin: a θ sweep computes each restart at most once, so one
// HighestTheta answer costs at most HeuristicOptions.Restarts restarts
// however many grid points it probes. The fresh sweep ran 47 on
// Persons σCov k = 2 (17 instances) and 19 on σDep k = 2, where the
// first restart's seed clears every grid point up to θ = 1.
func TestHighestThetaRestartWorkPins(t *testing.T) {
	persons := datagen.DBpediaPersons(0.01)
	for _, c := range []struct {
		name string
		rule *rules.Rule
		want int64
	}{
		{"persons-cov-k2", rules.CovRule(), 8},
		{"persons-dep-k2", rules.DepRule(datagen.PropDeathPlace, datagen.PropDeathDate), 1},
	} {
		before := Restarts()
		if _, err := HighestTheta(persons, c.rule, nil, 2, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
		if got := Restarts() - before; got != c.want {
			t.Errorf("%s: %d restarts per answer, want %d", c.name, got, c.want)
		}
	}
}
