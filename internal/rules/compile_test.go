package rules

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/matrix"
)

// compileTestRules is a battery of 1- and 2-variable rules exercising
// every atom kind the compiler must lower: cell equality, value and
// property (in)equalities, constants on used/unused/absent columns,
// negation and disjunction in both antecedent and consequent.
var compileTestRules = []string{
	// 1-variable, no property constants (→ CountsFunc).
	"c = c -> val(c) = 1",
	"val(c) = 1 -> val(c) = 1",
	"val(c) = 0 -> val(c) = 1",
	"c = c -> val(c) = 0 || val(c) = 1",
	// 1-variable with property constants (→ PairCountsFunc, no pairs).
	"(c = c && !(prop(c) = <pa>)) -> val(c) = 1",
	"prop(c) = <pb> -> val(c) = 1",
	"prop(c) = <absent> -> val(c) = 1",
	"val(c) = 1 -> prop(c) = <pa> || val(c) = 1",
	// 2-variable, both properties pinned (→ one demanded pair).
	"subj(c1) = subj(c2) && prop(c1) = <pa> && prop(c2) = <pb> && val(c1) = 1 -> val(c2) = 1",
	"subj(c1) = subj(c2) && prop(c1) = <pa> && prop(c2) = <pa> -> val(c1) = val(c2)",
	"subj(c1) = subj(c2) && prop(c1) = <pb> && prop(c2) = <absent> && val(c1) = 1 -> val(c2) = 1",
	// 2-variable, unpinned (→ full pair-count kernel).
	"!(c1 = c2) && prop(c1) = prop(c2) && val(c1) = 1 -> val(c2) = 1",
	"subj(c1) = subj(c2) && !(prop(c1) = prop(c2)) && val(c1) = 1 -> val(c2) = 1",
	"val(c1) = 1 && val(c2) = 0 -> subj(c1) = subj(c2)",
	"!(subj(c1) = subj(c2)) -> val(c1) = val(c2)",
	"prop(c1) = prop(c2) -> c1 = c2 || val(c1) = val(c2)",
	"prop(c1) = <pa> && c2 = c2 && val(c1) = 1 -> val(c2) = 1 || prop(c2) = <pb>",
}

// Compiled kernels must agree exactly — as Ratios — with the generic
// rough-assignment evaluator on arbitrary views.
func TestCompiledRulesMatchGenericEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, src := range compileTestRules {
		r := MustParse(src)
		fn, ok := CompileRule(r)
		if !ok {
			t.Fatalf("CompileRule(%q) not compilable", src)
		}
		for trial := 0; trial < 25; trial++ {
			v := randView(t, rng, 5, 6, 12)
			want, err := Evaluate(r, v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fn.Eval(v)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRatio(want, got) {
				t.Fatalf("%q on %s:\n generic  %v\n compiled %v", src, v, want, got)
			}
			// The aggregate-kernel entry points must agree with Eval too.
			switch k := fn.(type) {
			case CountsFunc:
				if gc := k.EvalMoments(MomentsOf(v.PropertyCounts()), int64(v.NumSubjects())); !sameRatio(got, gc) {
					t.Fatalf("%q: EvalMoments=%v want Eval=%v", src, gc, got)
				}
			case PairCountsFunc:
				gp := k.EvalPairCounts(v.PropertyCounts(), v.PairCounts(), int64(v.NumSubjects()))
				if !sameRatio(want, gp) {
					t.Fatalf("%q: EvalPairCounts=%v want %v", src, gp, want)
				}
			default:
				t.Fatalf("%q: compiled to neither CountsFunc nor PairCountsFunc", src)
			}
		}
		// Every 1-variable rule without property constants reads the
		// counts only through their moments.
		if _, isCounts := fn.(CountsFunc); isCounts != (len(r.Vars()) == 1 && len(collectPropConsts(r)) == 0) {
			t.Fatalf("%q: CountsFunc = %v", src, isCounts)
		}
	}
}

// FuncForRule must lower rules onto the right evaluator tier.
func TestFuncForRuleLowering(t *testing.T) {
	if _, ok := FuncForRule(CovRule()).(CountsFunc); !ok {
		t.Fatal("Cov rule did not lower to a CountsFunc")
	}
	if _, ok := FuncForRule(SimRule()).(CountsFunc); !ok {
		t.Fatal("Sim rule did not lower to a CountsFunc")
	}
	for _, r := range []*Rule{DepRule("a", "b"), SymDepRule("a", "b"), DepDisjRule("a", "b")} {
		fn := FuncForRule(r)
		pf, ok := fn.(PairCountsFunc)
		if !ok {
			t.Fatalf("%s did not lower to a PairCountsFunc", r.Name)
		}
		pd, ok := pf.(PairDemands)
		if !ok || len(pd.NeededPairs()) != 1 {
			t.Fatalf("%s: expected one demanded pair", r.Name)
		}
	}
	// A custom 1-variable rule compiles to a CountsFunc.
	if _, ok := FuncForRule(MustParse("val(c) = 0 -> val(c) = 1")).(CountsFunc); !ok {
		t.Fatal("custom 1-var rule did not compile to a CountsFunc")
	}
	// A custom pinned 2-variable rule compiles to a demanded-pair kernel.
	custom := MustParse("subj(c1) = subj(c2) && prop(c1) = <x> && prop(c2) = <y> -> val(c1) = val(c2)")
	fn := FuncForRule(custom)
	if pd, ok := fn.(PairDemands); !ok || len(pd.NeededPairs()) != 1 {
		t.Fatalf("custom pinned rule lowered to %T without a demanded pair", fn)
	}
	// An unpinned 2-variable rule compiles without fixed demands.
	free := MustParse("val(c1) = 1 && val(c2) = 0 -> val(c2) = 0")
	if pd, ok := FuncForRule(free).(PairDemands); !ok || pd.NeededPairs() != nil {
		t.Fatal("unpinned 2-var rule should compile with nil NeededPairs")
	}
	// Three variables stay on the generic evaluator.
	three := MustParse("val(c1) = 1 && val(c2) = 1 && val(c3) = 1 -> val(c1) = 1")
	if _, ok := FuncForRule(three).(RuleFunc); !ok {
		t.Fatal("3-var rule should stay a RuleFunc")
	}
	// Subject constants are not compilable (naive evaluator only).
	subj := &Rule{Antecedent: SubjEqConst{C: "c", U: "s"}, Consequent: ValEqConst{C: "c", I: 1}}
	if _, ok := CompileRule(subj); ok {
		t.Fatal("subj(c)=const rule must not compile")
	}
}

// The signature-parallel rough evaluator must be bit-identical to the
// sequential one for every worker count (run under -race in CI).
func TestEvaluateParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	srcs := []string{
		"val(c1) = 1 && val(c2) = 1 && val(c3) = 1 -> val(c1) = val(c2)",
		"subj(c1) = subj(c2) && val(c1) = 1 -> val(c2) = 1",
		"c = c -> val(c) = 1",
	}
	for _, src := range srcs {
		r := MustParse(src)
		for trial := 0; trial < 6; trial++ {
			v := randView(t, rng, 4, 5, 8)
			want, err := Evaluate(r, v)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				got, err := EvaluateParallel(r, v, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRatio(want, got) {
					t.Fatalf("%q workers=%d: %v vs sequential %v", src, workers, got, want)
				}
			}
			rf := RuleFunc{R: r, Workers: 4}
			got, err := rf.Eval(v)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRatio(want, got) {
				t.Fatalf("RuleFunc{Workers:4} %q: %v vs %v", src, got, want)
			}
		}
	}
}

// Beyond 2³⁰ subjects the two-variable kernel must widen its bucket
// arithmetic: distinct-subject weights reach |S|², past int64 for
// billion-subject views. Pin exact agreement with the big.Int-based
// generic evaluator at that scale.
func TestCompiled2WideArithmetic(t *testing.T) {
	props := []string{"pa", "pb"}
	big1 := bitset.FromIndices(2, 0)
	big2 := bitset.FromIndices(2, 1)
	both := bitset.FromIndices(2, 0, 1)
	v, err := matrix.New(props, []matrix.Signature{
		{Bits: big1, Count: 1_500_000_001},
		{Bits: big2, Count: 1_200_000_003},
		{Bits: both, Count: 900_000_007},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"!(c1 = c2) && prop(c1) = prop(c2) && val(c1) = 1 -> val(c2) = 1",
		"val(c1) = 1 && val(c2) = 0 -> subj(c1) = subj(c2)",
		"subj(c1) = subj(c2) && prop(c1) = <pa> && prop(c2) = <pb> && val(c1) = 1 -> val(c2) = 1",
	} {
		r := MustParse(src)
		fn, ok := CompileRule(r)
		if !ok {
			t.Fatalf("CompileRule(%q) not compilable", src)
		}
		want, err := Evaluate(r, v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fn.Eval(v)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRatio(want, got) {
			t.Fatalf("%q at 3.6G subjects:\n generic  %v\n compiled %v", src, want, got)
		}
		if got.Tot.Sign() < 0 || got.Fav.Sign() < 0 {
			t.Fatalf("%q: negative counts (overflow): %v", src, got)
		}
	}
}
