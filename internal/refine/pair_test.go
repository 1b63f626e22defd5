package refine

import (
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/matrix"
	"repro/internal/rules"
)

// opaqueFunc hides a measure's incremental interfaces (CountsFunc,
// PairCountsFunc), forcing the search engine onto its generic
// subset-view path — the pre-compilation baseline the pair-mode
// equivalence and ablation tests compare against.
type opaqueFunc struct{ fn rules.Func }

func (o opaqueFunc) Name() string                             { return o.fn.Name() }
func (o opaqueFunc) Eval(v *matrix.View) (rules.Ratio, error) { return o.fn.Eval(v) }

// depProps picks two properties of the DBpedia Persons generator.
const (
	depP1 = datagen.PropDeathPlace
	depP2 = datagen.PropDeathDate
)

func depView(t *testing.T) *matrix.View {
	t.Helper()
	v := datagen.DBpediaPersons(0.002)
	if _, ok := v.PropertyIndex(depP1); !ok {
		t.Fatalf("generator view lacks %s", depP1)
	}
	return v
}

// The pair-mode delta scoring must drive the local search through
// exactly the same trajectory as the generic subset-view baseline:
// identical assignments, identical σ Ratios, for Dep, SymDep and a
// compiled pinned custom rule.
func TestPairModeBitIdenticalToGenericSearch(t *testing.T) {
	v := depView(t)
	funcs := []rules.Func{
		rules.DepFunc(depP1, depP2),
		rules.SymDepFunc(depP2, depP1),
		rules.DepDisjFunc(depP1, depP2),
		rules.FuncForRule(rules.MustParse(
			"subj(c1) = subj(c2) && prop(c1) = <" + depP1 + "> && prop(c2) = <" + depP2 + "> -> val(c1) = val(c2)")),
		// A missing property must stay vacuous through both paths.
		rules.DepFunc(depP1, "http://example.org/absent"),
	}
	for _, fn := range funcs {
		if _, ok := fn.(rules.PairCountsFunc); !ok {
			t.Fatalf("%s: not a PairCountsFunc", fn.Name())
		}
		for _, k := range []int{2, 3} {
			opts := HeuristicOptions{Restarts: 6, MaxIters: 40, Seed: 7}
			fast := &Problem{View: v, Func: fn, K: k, Theta1: 95, Theta2: 100}
			slow := &Problem{View: v, Func: opaqueFunc{fn}, K: k, Theta1: 95, Theta2: 100}
			refF, okF, errF := SolveHeuristic(fast, opts)
			refS, okS, errS := SolveHeuristic(slow, opts)
			if errF != nil || errS != nil {
				t.Fatalf("%s k=%d: errs %v / %v", fn.Name(), k, errF, errS)
			}
			if okF != okS {
				t.Fatalf("%s k=%d: feasible %v vs %v", fn.Name(), k, okF, okS)
			}
			if len(refF.Assignment) != len(refS.Assignment) {
				t.Fatalf("%s k=%d: assignment lengths differ", fn.Name(), k)
			}
			for i := range refF.Assignment {
				if refF.Assignment[i] != refS.Assignment[i] {
					t.Fatalf("%s k=%d: assignments diverge at signature %d:\n pair    %v\n generic %v",
						fn.Name(), k, i, refF.Assignment, refS.Assignment)
				}
			}
			for i := range refF.Values {
				if refF.Values[i].Fav.Cmp(refS.Values[i].Fav) != 0 || refF.Values[i].Tot.Cmp(refS.Values[i].Tot) != 0 {
					t.Fatalf("%s k=%d: sort %d Ratio %v vs %v", fn.Name(), k, i, refF.Values[i], refS.Values[i])
				}
			}
		}
	}
}

// The point of the compiled evaluators: a Dep local search must do at
// least 10× fewer signature-list scans per search than the
// scan-per-evaluation baseline (on the 64-signature DBpedia generator
// the baseline scans once per candidate move; pair mode scans only for
// the final exact verification).
func TestPairModeScanReduction(t *testing.T) {
	v := depView(t)
	fn := rules.DepFunc(depP1, depP2)
	opts := HeuristicOptions{Restarts: 4, MaxIters: 30, Seed: 3}
	run := func(f rules.Func) int64 {
		p := &Problem{View: v, Func: f, K: 3, Theta1: 99, Theta2: 100}
		before := rules.SignatureScans()
		if _, _, err := SolveHeuristic(p, opts); err != nil {
			t.Fatal(err)
		}
		return rules.SignatureScans() - before
	}
	fast := run(fn)
	slow := run(opaqueFunc{fn})
	if fast == 0 {
		t.Fatal("expected some scans from final exact verification")
	}
	if slow < 10*fast {
		t.Fatalf("scan reduction only %d/%d = %.1f×, want ≥ 10×", slow, fast, float64(slow)/float64(fast))
	}
	t.Logf("signature scans: baseline %d, pair mode %d (%.0f× fewer)", slow, fast, float64(slow)/float64(fast))
}

// HighestTheta under a dependency measure must agree end-to-end with
// the generic baseline: same θ, same refinement.
func TestHighestThetaDepMatchesBaseline(t *testing.T) {
	v := depView(t)
	fn := rules.DepFunc(depP2, depP1)
	opts := SearchOptions{Engine: EngineHeuristic, Heuristic: HeuristicOptions{Restarts: 4, MaxIters: 25, Seed: 5}}
	outF, err := HighestTheta(v, nil, fn, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	outS, err := HighestTheta(v, nil, opaqueFunc{fn}, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if outF.Theta1 != outS.Theta1 || outF.Theta2 != outS.Theta2 {
		t.Fatalf("θ diverged: %d/%d vs %d/%d", outF.Theta1, outF.Theta2, outS.Theta1, outS.Theta2)
	}
	for i := range outF.Refinement.Assignment {
		if outF.Refinement.Assignment[i] != outS.Refinement.Assignment[i] {
			t.Fatalf("assignments diverge at signature %d", i)
		}
	}
}

// The moments path (σCov, σSim and a compiled one-variable rule) must
// drive the search through exactly the generic subset-view trajectory,
// on a narrow corpus and on a 2 000-column one where a signature
// touches a few columns out of |P|: identical assignments, σ Ratios and
// minimum σ from both SolveHeuristic and HighestTheta.
func TestMomentsModeBitIdenticalToGenericSearch(t *testing.T) {
	views := []struct {
		name string
		v    *matrix.View
		ks   []int // the generic path rescans 2 000 columns per move
	}{
		{"persons", depView(t), []int{2, 3}},
		{"wide", datagen.WideSchema(datagen.WideAtScale(0.1, 1)), []int{2}},
	}
	funcs := []rules.Func{
		rules.CovFunc(),
		rules.SimFunc(),
		rules.FuncForRule(rules.MustParse("val(c) = 0 -> val(c) = 1")),
	}
	same := func(t *testing.T, what string, f, s *Refinement) {
		t.Helper()
		if !reflect.DeepEqual(f.Assignment, s.Assignment) {
			t.Fatalf("%s: assignments diverge:\n moments %v\n generic %v", what, f.Assignment, s.Assignment)
		}
		if f.MinSigma != s.MinSigma {
			t.Fatalf("%s: min σ %v vs %v", what, f.MinSigma, s.MinSigma)
		}
		for i := range f.Values {
			if f.Values[i].Fav.Cmp(s.Values[i].Fav) != 0 || f.Values[i].Tot.Cmp(s.Values[i].Tot) != 0 {
				t.Fatalf("%s: sort %d Ratio %v vs %v", what, i, f.Values[i], s.Values[i])
			}
		}
	}
	for _, vc := range views {
		for _, fn := range funcs {
			if _, ok := fn.(rules.CountsFunc); !ok {
				t.Fatalf("%s: not a CountsFunc", fn.Name())
			}
			what := vc.name + " " + fn.Name()
			hopts := HeuristicOptions{Restarts: 4, MaxIters: 10, Seed: 7}
			for _, k := range vc.ks {
				fast := &Problem{View: vc.v, Func: fn, K: k, Theta1: 95, Theta2: 100}
				slow := &Problem{View: vc.v, Func: opaqueFunc{fn}, K: k, Theta1: 95, Theta2: 100}
				refF, okF, errF := SolveHeuristic(fast, hopts)
				refS, okS, errS := SolveHeuristic(slow, hopts)
				if errF != nil || errS != nil {
					t.Fatalf("%s k=%d: errs %v / %v", what, k, errF, errS)
				}
				if okF != okS {
					t.Fatalf("%s k=%d: feasible %v vs %v", what, k, okF, okS)
				}
				same(t, what, refF, refS)
			}
			sopts := SearchOptions{Engine: EngineHeuristic, Heuristic: hopts}
			outF, err := HighestTheta(vc.v, nil, fn, 2, sopts)
			if err != nil {
				t.Fatal(err)
			}
			outS, err := HighestTheta(vc.v, nil, opaqueFunc{fn}, 2, sopts)
			if err != nil {
				t.Fatal(err)
			}
			if outF.Theta1 != outS.Theta1 || outF.Instances != outS.Instances {
				t.Fatalf("%s: θ %d/%d after %d probes vs %d/%d after %d", what,
					outF.Theta1, outF.Theta2, outF.Instances, outS.Theta1, outS.Theta2, outS.Instances)
			}
			same(t, what+" HighestTheta", outF.Refinement, outS.Refinement)
		}
	}
}
