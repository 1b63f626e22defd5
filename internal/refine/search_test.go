package refine

import (
	"errors"
	"testing"

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
	_, ok, proven, err := decide(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ok || !proven {
		t.Fatalf("auto verdict ok=%v proven=%v, want proven infeasible", ok, proven)
	}
}
