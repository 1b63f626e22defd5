package rules

import (
	"fmt"

	"repro/internal/matrix"
)

// This file defines the compiled σ-evaluator contract: measures whose
// value on any view is a function of three aggregates — the
// per-property subject counts N_p, the pairwise co-occurrence counts
// C[p1][p2], and the subject count |S|. Following the associative-array
// view of graph measures (D4M), every two-variable rule of the language
// reduces to arithmetic over these aggregates, so evaluating σDep,
// σSymDep or any compiled rule costs a handful of array reads instead
// of a signature scan or a rough-assignment enumeration. The aggregates
// themselves are maintained incrementally: matrix.View memoizes them
// per view, refine delta-updates them per local-search move, and
// rules.PairTracker/internal/incr keep them live under ingestion.

// PairCounts is read access to a pairwise co-occurrence aggregate with
// name-keyed columns: Both(i, j) is the number of subjects having both
// property columns i and j (N_p on the diagonal), and Column resolves a
// property name to its index in the same column space as the N_p vector
// handed to EvalPairCounts. matrix.PairCounts implements it for views;
// internal/refine and internal/incr provide delta-maintained
// implementations for local-search groups and live datasets.
type PairCounts interface {
	// Column resolves a property name to its column index.
	Column(p string) (int, bool)
	// Both returns the number of subjects having both column i and j.
	Both(i, j int) int64
}

// PairCountsFunc is implemented by measures whose value on any view is
// a function of (N_p, C, |S|) alone — the two-variable analogue of
// CountsFunc. It is the contract behind delta-scoring dependency
// measures in local search and O(1) σ reads on live datasets: callers
// maintain the aggregates incrementally and re-evaluate the kernel
// without materializing subset views.
type PairCountsFunc interface {
	Func
	// EvalPairCounts computes σ of a (sub-)dataset from its per-property
	// subject counts, its pairwise co-occurrence counts and its subject
	// count. propCounts and pairCounts share one column space (pairCounts
	// .Column resolves names into it). It must agree exactly — as a
	// Ratio, not merely as a float — with Eval on the corresponding
	// view. The counts slice is read-only.
	EvalPairCounts(propCounts []int64, pairCounts PairCounts, subjects int64) Ratio
}

// PairDemands is optionally implemented by PairCountsFuncs whose
// EvalPairCounts reads only a fixed set of co-occurrence entries —
// true of σDep/σSymDep/σDepDisj (one entry each) and of compiled rules
// whose antecedent pins both variables' properties. Callers use it to
// maintain only the demanded entries: the local-search engine tracks
// one running count per demanded pair per sort, making relocation
// moves under dependency measures O(popcount) per candidate.
type PairDemands interface {
	// NeededPairs returns the property-name pairs EvalPairCounts may
	// read, or nil when it may read arbitrary pairs.
	NeededPairs() [][2]string
}

// pairColumns resolves both endpoints of a dependency measure against
// the aggregate's column space, mirroring the view-based closed forms'
// vacuity rules: either column missing or empty ⇒ no total cases.
func pairColumns(pc PairCounts, propCounts []int64, p1, p2 string) (i, j int, ok bool) {
	i, ok1 := pc.Column(p1)
	j, ok2 := pc.Column(p2)
	if !ok1 || !ok2 || propCounts[i] == 0 || propCounts[j] == 0 {
		return 0, 0, false
	}
	return i, j, true
}

// depFunc is σDep[p1,p2] with a pair-counts kernel.
type depFunc struct{ p1, p2 string }

func (f depFunc) Name() string { return fmt.Sprintf("Dep[%s,%s]", f.p1, f.p2) }

func (f depFunc) Eval(v *matrix.View) (Ratio, error) { return Dep(v, f.p1, f.p2), nil }

// EvalPairCounts mirrors Dep: both(p1,p2) / N_{p1}.
func (f depFunc) EvalPairCounts(propCounts []int64, pc PairCounts, subjects int64) Ratio {
	i, j, ok := pairColumns(pc, propCounts, f.p1, f.p2)
	if !ok {
		return NewRatio(0, 0)
	}
	return NewRatio(pc.Both(i, j), propCounts[i])
}

func (f depFunc) NeededPairs() [][2]string { return [][2]string{{f.p1, f.p2}} }

// symDepFunc is σSymDep[p1,p2] with a pair-counts kernel.
type symDepFunc struct{ p1, p2 string }

func (f symDepFunc) Name() string { return fmt.Sprintf("SymDep[%s,%s]", f.p1, f.p2) }

func (f symDepFunc) Eval(v *matrix.View) (Ratio, error) { return SymDep(v, f.p1, f.p2), nil }

// EvalPairCounts mirrors SymDep: both / (N_{p1} + N_{p2} − both).
func (f symDepFunc) EvalPairCounts(propCounts []int64, pc PairCounts, subjects int64) Ratio {
	i, j, ok := pairColumns(pc, propCounts, f.p1, f.p2)
	if !ok {
		return NewRatio(0, 0)
	}
	both := pc.Both(i, j)
	return NewRatio(both, propCounts[i]+propCounts[j]-both)
}

func (f symDepFunc) NeededPairs() [][2]string { return [][2]string{{f.p1, f.p2}} }

// depDisjFunc is σDepDisj[p1,p2] with a pair-counts kernel.
type depDisjFunc struct{ p1, p2 string }

func (f depDisjFunc) Name() string { return fmt.Sprintf("DepDisj[%s,%s]", f.p1, f.p2) }

func (f depDisjFunc) Eval(v *matrix.View) (Ratio, error) { return DepDisjEval(v, f.p1, f.p2), nil }

// EvalPairCounts mirrors DepDisjEval: (|S| − N_{p1} + both) / |S|.
func (f depDisjFunc) EvalPairCounts(propCounts []int64, pc PairCounts, subjects int64) Ratio {
	i, j, ok := pairColumns(pc, propCounts, f.p1, f.p2)
	if !ok {
		return NewRatio(0, 0)
	}
	return NewRatio(subjects-propCounts[i]+pc.Both(i, j), subjects)
}

func (f depDisjFunc) NeededPairs() [][2]string { return [][2]string{{f.p1, f.p2}} }
