// Command rdfrefine discovers a sort refinement of an RDF dataset: an
// entity-preserving, signature-closed partition into implicit sorts
// whose structuredness clears a threshold (the paper's Section 4–6).
//
// Usage:
//
//	# best threshold with at most 2 sorts:
//	rdfrefine -in persons.nt -fn cov -k 2
//
//	# fewest sorts reaching threshold 0.9:
//	rdfrefine -in persons.nt -fn sim -theta 0.9
//
//	# custom rule, exact engine:
//	rdfrefine -in data.nt -rule '... -> ...' -k 3 -engine exact
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/refine"
	"repro/internal/rules"
)

func main() {
	in := flag.String("in", "", "N-Triples input file (required)")
	sortURI := flag.String("sort", "", "restrict to subjects of this rdf:type")
	fnName := flag.String("fn", "cov", "built-in measure: cov, sim, dep[p1,p2], symdep[p1,p2]")
	ruleSrc := flag.String("rule", "", "custom rule (overrides -fn)")
	k := flag.Int("k", 0, "fixed sort budget: find the highest threshold (paper setting 1)")
	theta := flag.Float64("theta", 0, "fixed threshold: find the lowest k (paper setting 2)")
	engine := flag.String("engine", "auto", "solver engine: auto, exact, heuristic")
	budget := flag.Int64("budget", 500000, "exact-solver decision budget")
	flag.Int("workers", 0, "ignored; the search is sequential")
	renderRows := flag.Int("rows", 0, "render the resulting sorts with this many rows (0 = off)")
	dumpLP := flag.String("dumplp", "", "write the paper's ILP encoding (at -k and -theta) to this file in CPLEX LP format and exit")
	flag.Parse()

	if *in == "" || (*dumpLP == "" && (*k == 0) == (*theta == 0)) {
		fmt.Fprintln(os.Stderr, "rdfrefine: need -in and exactly one of -k or -theta")
		os.Exit(2)
	}
	d, err := core.Load(*in, *sortURI)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfrefine:", err)
		os.Exit(1)
	}
	fmt.Println(d.Summary())

	var rule *rules.Rule
	if *ruleSrc != "" {
		rule, err = core.ParseRule(*ruleSrc)
	} else {
		_, rule, err = core.Builtin(*fnName)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfrefine:", err)
		os.Exit(1)
	}

	if *dumpLP != "" {
		kk := *k
		if kk == 0 {
			kk = 2
		}
		p := &refine.Problem{View: d.View, Rule: rule, K: kk,
			Theta1: int64(*theta * 100), Theta2: 100}
		enc, err := refine.Encode(p, refine.EncodeOptions{SymmetryBreaking: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rdfrefine:", err)
			os.Exit(1)
		}
		f, err := os.Create(*dumpLP)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rdfrefine:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := ilp.WriteLP(f, enc.Model); err != nil {
			fmt.Fprintln(os.Stderr, "rdfrefine:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote ILP instance: %d variables, %d constraints, %d rough assignments\n",
			enc.Model.NumVars(), enc.Model.NumConstraints(), len(enc.Taus))
		return
	}

	opts := refine.SearchOptions{
		Solver: ilp.Options{MaxDecisions: *budget},
		Encode: refine.EncodeOptions{SymmetryBreaking: true},
	}
	switch *engine {
	case "auto":
		opts.Engine = refine.EngineAuto
	case "exact":
		opts.Engine = refine.EngineExact
	case "heuristic":
		opts.Engine = refine.EngineHeuristic
	default:
		fmt.Fprintln(os.Stderr, "rdfrefine: unknown engine", *engine)
		os.Exit(2)
	}

	var res *core.RefineResult
	if *k > 0 {
		res, err = d.HighestTheta(rule, *k, opts)
	} else {
		t1 := int64(*theta * 100)
		res, err = d.LowestK(rule, t1, 100, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfrefine:", err)
		os.Exit(1)
	}
	fmt.Print(res.Describe())
	if *renderRows > 0 {
		fmt.Print(res.RenderSorts(*renderRows))
	}
}
