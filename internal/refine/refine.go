// Package refine implements sort refinements (Section 4 of the paper):
// entity-preserving, signature-closed partitions of a dataset into
// implicit sorts whose structuredness clears a threshold. It contains
// the paper's ILP encoding (Section 6) solved exactly by internal/ilp,
// a local-search engine for paper-scale instances, and the two search
// strategies of Section 7 (highest θ for fixed k, lowest k for fixed θ).
package refine

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/rules"
)

// Assignment maps each signature index of a view to an implicit sort in
// [0, k). Because implicit sorts must be closed under signatures
// (Definition 4.2), an assignment of signature sets fully determines an
// entity-preserving partition.
type Assignment []int

// Clone returns a copy.
func (a Assignment) Clone() Assignment { return append(Assignment(nil), a...) }

// Refinement is a computed sort refinement.
type Refinement struct {
	// Assignment maps signatures to implicit sorts.
	Assignment Assignment
	// K is the number of implicit sorts (including empty ones).
	K int
	// Values holds σ(Di) for each implicit sort (vacuous 1 for empty).
	Values []rules.Ratio
	// MinSigma is the minimum σ over non-empty implicit sorts (1 if all
	// empty, which cannot happen for non-empty views).
	MinSigma float64
	// Exact records whether the result came from the exact ILP engine.
	Exact bool
}

// SortViews materializes the implicit sorts as subset views of v,
// omitting empty sorts. The i-th returned view corresponds to the i-th
// non-empty sort index in ascending order; indices are also returned.
func (r *Refinement) SortViews(v *matrix.View) ([]*matrix.View, []int) {
	groups := make([][]int, r.K)
	for sig, sort := range r.Assignment {
		groups[sort] = append(groups[sort], sig)
	}
	var out []*matrix.View
	var idx []int
	for i, g := range groups {
		if len(g) > 0 {
			out = append(out, v.Subset(g))
			idx = append(idx, i)
		}
	}
	return out, idx
}

// EvalAssignment computes σ per implicit sort and the minimum over
// non-empty sorts.
func EvalAssignment(fn rules.Func, v *matrix.View, assign Assignment, k int) ([]rules.Ratio, float64, error) {
	if len(assign) != v.NumSignatures() {
		return nil, 0, fmt.Errorf("refine: assignment covers %d of %d signatures", len(assign), v.NumSignatures())
	}
	groups := make([][]int, k)
	for sig, sort := range assign {
		if sort < 0 || sort >= k {
			return nil, 0, fmt.Errorf("refine: signature %d assigned to sort %d outside [0,%d)", sig, sort, k)
		}
		groups[sort] = append(groups[sort], sig)
	}
	values := make([]rules.Ratio, k)
	min := 1.0
	for i, g := range groups {
		if len(g) == 0 {
			values[i] = rules.NewRatio(0, 0) // vacuous
			continue
		}
		r, err := fn.Eval(v.Subset(g))
		if err != nil {
			return nil, 0, err
		}
		values[i] = r
		if val := r.Value(); val < min {
			min = val
		}
	}
	return values, min, nil
}

// Feasible reports whether the assignment is a σ-sort refinement with
// threshold θ1/θ2, using exact rational comparison per sort.
func Feasible(fn rules.Func, v *matrix.View, assign Assignment, k int, theta1, theta2 int64) (bool, error) {
	groups := make([][]int, k)
	for sig, sort := range assign {
		groups[sort] = append(groups[sort], sig)
	}
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		r, err := fn.Eval(v.Subset(g))
		if err != nil {
			return false, err
		}
		if !r.AtLeast(theta1, theta2) {
			return false, nil
		}
	}
	return true, nil
}

// Problem describes one EXISTSSORTREFINEMENT(r) instance: does view V
// admit a σr-sort refinement with threshold θ1/θ2 and at most K sorts?
type Problem struct {
	View   *matrix.View
	Rule   *rules.Rule // required by the exact ILP engine
	Func   rules.Func  // evaluator; derived from Rule if nil
	K      int
	Theta1 int64
	Theta2 int64
}

// EvalFunc returns the problem's evaluator, deriving the fastest exact
// one from the rule when unset.
func (p *Problem) EvalFunc() rules.Func {
	if p.Func != nil {
		return p.Func
	}
	if p.Rule != nil {
		return rules.FuncForRule(p.Rule)
	}
	return nil
}

// Validate checks the problem is well-formed.
//
// Every measure the engine can hold — closed forms, counts/pair-counts
// kernels, compiled rules and generic rules through the rough counter —
// is a pure, deterministic function of the view, so no evaluator is
// rejected. Measures that are neither rules.CountsFunc nor
// rules.PairCountsFunc score groups through subset views instead of
// delta-maintained aggregates; they are slower, not unsafe.
func (p *Problem) Validate() error {
	if p.View == nil {
		return fmt.Errorf("refine: nil view")
	}
	if p.K < 1 {
		return fmt.Errorf("refine: k = %d < 1", p.K)
	}
	if p.Theta2 <= 0 || p.Theta1 < 0 || p.Theta1 > p.Theta2 {
		return fmt.Errorf("refine: threshold %d/%d outside [0,1]", p.Theta1, p.Theta2)
	}
	if p.EvalFunc() == nil {
		return fmt.Errorf("refine: neither Rule nor Func set")
	}
	return nil
}
