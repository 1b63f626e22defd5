package refine

import (
	"errors"
	"fmt"
	"math/big"
	"time"

	"repro/internal/ilp"
	"repro/internal/matrix"
	"repro/internal/rules"
)

// Engine selects how feasibility instances are decided.
type Engine int

// Engines.
const (
	// EngineAuto uses the exact ILP solver when the instance is small
	// enough (heuristically judged by signature count and rule arity)
	// and local search otherwise.
	EngineAuto Engine = iota
	// EngineExact always uses the ILP encoding + pseudo-Boolean solver.
	EngineExact
	// EngineHeuristic always uses local search (no infeasibility proofs).
	EngineHeuristic
)

// SearchOptions configures the strategy drivers.
type SearchOptions struct {
	Engine    Engine
	Encode    EncodeOptions
	Solver    ilp.Options
	Heuristic HeuristicOptions
	// ThetaStep is the sweep granularity for HighestTheta, as a
	// denominator: step = 1/ThetaStep (default 100, i.e. 0.01 as in the
	// paper's experiments).
	ThetaStep int64
	// MaxK bounds the lowest-k search (default: number of signatures).
	MaxK int
	// Downward searches LowestK from high k to low, which the paper
	// found more efficient for some setups (Section 7): the identity
	// refinement with one sort per signature set is always feasible, so
	// the search walks down through feasible instances (fast witnesses)
	// instead of up through infeasible ones (slow proofs).
	Downward bool
	// Workers is ignored: the search is sequential. It remains so that
	// callers setting it keep compiling.
	Workers int
	// Cancel aborts the search when closed. A cancelled search returns
	// ErrCanceled and no outcome.
	Cancel <-chan struct{}
}

// defaults fills unset budgets and threads Cancel into both engines.
// Any verified witness decides a feasibility instance, so the local
// search stops at the first one.
func (o *SearchOptions) defaults() {
	if o.ThetaStep == 0 {
		o.ThetaStep = 100
	}
	if o.Solver.MaxDecisions == 0 {
		o.Solver.MaxDecisions = 2_000_000
	}
	o.Solver.Cancel = o.Cancel
	o.Heuristic.Cancel = o.Cancel
	o.Heuristic.TargetEarlyExit = true
}

// ErrCanceled reports a search aborted through SearchOptions.Cancel.
// A decision cut short proves nothing either way, so no outcome comes
// with it.
var ErrCanceled = errors.New("refine: search canceled")

// canceled reports whether the channel is closed (nil = never).
func canceled(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Outcome describes one strategy run.
type Outcome struct {
	Refinement *Refinement
	// Theta1/Theta2 is the threshold the refinement satisfies.
	Theta1, Theta2 int64
	// K is the number of implicit sorts allowed.
	K int
	// Elapsed is total wall-clock time across the search.
	Elapsed time.Duration
	// Instances counts feasibility instances solved during the search.
	Instances int
	// Exact reports whether every decision came from the exact engine.
	Exact bool
}

// decide solves one feasibility instance with the selected engine.
// proven reports whether the answer is certified: a feasible answer is
// always proven (the witness is verified exactly); an infeasible answer
// is proven only when the exact engine completed. A decision started or
// finished under a closed Cancel fails with ErrCanceled: the engines
// cut short report "no witness", which must not pass for a verdict.
// rs holds the local-search restarts for p's view, measure and k; a θ
// sweep shares one set across its grid points.
func decide(p *Problem, opts *SearchOptions, rs *restartSet) (ref *Refinement, ok, proven bool, err error) {
	if canceled(opts.Cancel) {
		return nil, false, false, ErrCanceled
	}
	ref, ok, proven, err = runEngine(p, opts, rs)
	if canceled(opts.Cancel) {
		return nil, false, false, ErrCanceled
	}
	return ref, ok, proven, err
}

// runEngine is decide without the cancellation guard.
func runEngine(p *Problem, opts *SearchOptions, rs *restartSet) (ref *Refinement, ok, proven bool, err error) {
	switch opts.Engine {
	case EngineExact:
		ref, ok, err := SolveExact(p, opts.Encode, opts.Solver)
		if err == ErrBudget || err == ErrTooLarge {
			// Fall back to the heuristic: it can still certify feasibility
			// (the witness is verified exactly) but not infeasibility.
			ref, ok, err := rs.solve(p)
			return ref, ok, ok, err
		}
		return ref, ok, err == nil, err
	case EngineHeuristic:
		ref, ok, err := rs.solve(p)
		return ref, ok, ok, err
	default: // EngineAuto
		// Witness-first: the local search certifies feasibility cheaply;
		// the exact engine is only needed when no witness is found —
		// either to recover one the heuristic missed or to prove
		// infeasibility. This mirrors the paper's observation that
		// infeasible instances dominate the cost of the θ sweep.
		ref, ok, err := rs.solve(p)
		if err != nil || ok || !exactTractable(p) {
			return ref, ok, ok, err
		}
		encodeOpts := opts.Encode
		if encodeOpts.MaxTVars == 0 {
			encodeOpts.MaxTVars = 50_000
		}
		exRef, exOK, exErr := SolveExact(p, encodeOpts, opts.Solver)
		if exErr == ErrBudget || exErr == ErrTooLarge {
			return ref, false, false, nil // undecided: report the heuristic's best
		}
		if exErr != nil {
			return nil, false, false, exErr
		}
		return exRef, exOK, true, nil
	}
}

// exactTractable pre-filters instances whose rough-assignment
// enumeration alone would be too expensive to even attempt encoding.
// Instances passing this filter are encoded with a T-variable cap (see
// runEngine), which measures the true pruned size.
func exactTractable(p *Problem) bool {
	if p.Rule == nil {
		return false
	}
	n := len(p.Rule.Vars())
	sigs := p.View.NumSignatures()
	props := p.View.NumProperties()
	taus := 1
	for i := 0; i < n; i++ {
		taus *= sigs * props
		if taus > 2_000_000 {
			return false
		}
	}
	return true
}

// HighestTheta finds, for fixed k, the largest threshold θ (on the
// 1/ThetaStep grid) for which a sort refinement exists — the paper's
// first experimental setting. Following Section 7, the sweep walks
// upward from the dataset's own structuredness value (for which the
// trivial one-sort refinement is a witness at k ≥ 1), because proving
// infeasibility is far more expensive than finding a witness.
func HighestTheta(view *matrix.View, rule *rules.Rule, fn rules.Func, k int, opts SearchOptions) (*Outcome, error) {
	opts.defaults()
	p := &Problem{View: view, Rule: rule, Func: fn, K: k}
	evalFn := p.EvalFunc()
	if evalFn == nil {
		return nil, fmt.Errorf("refine: no rule or func")
	}
	base, err := evalFn.Eval(view)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	// Start at ⌊σ(D)·step⌋/step: guaranteed feasible with the identity
	// refinement. The floor is taken on the exact rational — a float
	// product can land just below an integer (one wasted probe) or round
	// up past one, which would report the identity refinement as a
	// witness for a θ it does not meet.
	t1 := opts.ThetaStep
	if base.Tot != nil && base.Tot.Sign() != 0 {
		q := new(big.Int).Mul(base.Fav, big.NewInt(opts.ThetaStep))
		t1 = q.Div(q, base.Tot).Int64()
	}
	if t1 < 0 {
		t1 = 0
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
	// The restarts read only view, measure and k, never θ: one set
	// serves every grid point.
	rs := newRestartSet(&Problem{View: view, Func: evalFn, K: k}, opts.Heuristic)
	for theta := t1 + 1; theta <= opts.ThetaStep; theta++ {
		p := &Problem{View: view, Rule: rule, Func: evalFn, K: k, Theta1: theta, Theta2: opts.ThetaStep}
		ref, ok, proven, err := decide(p, &opts, rs)
		if err != nil {
			return nil, err
		}
		out.Instances++
		if !ok {
			// Infeasible (proven) or no witness found: stop at the last
			// stored solution, as the paper does.
			if !proven {
				out.Exact = false
			}
			break
		}
		out.Refinement = ref
		out.Theta1 = theta
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// LowestK finds, for a fixed threshold θ1/θ2, the smallest number k of
// implicit sorts admitting a sort refinement — the paper's second
// experimental setting. The search proceeds upward from k = 1 (the
// paper chooses direction case by case; upward matches its DBpedia
// runs).
func LowestK(view *matrix.View, rule *rules.Rule, fn rules.Func, theta1, theta2 int64, opts SearchOptions) (*Outcome, error) {
	opts.defaults()
	maxK := opts.MaxK
	if maxK <= 0 {
		maxK = view.NumSignatures()
	}
	if opts.Downward {
		return lowestKDownward(view, rule, fn, theta1, theta2, opts, maxK)
	}
	start := time.Now()
	out := &Outcome{Theta1: theta1, Theta2: theta2, Exact: true}
	for k := 1; k <= maxK; k++ {
		p := &Problem{View: view, Rule: rule, Func: fn, K: k, Theta1: theta1, Theta2: theta2}
		ref, ok, proven, err := decide(p, &opts, newRestartSet(p, opts.Heuristic))
		if err != nil {
			return nil, err
		}
		out.Instances++
		if ok {
			out.Refinement = ref
			out.K = k
			out.Elapsed = time.Since(start)
			return out, nil
		}
		// An unproven "not found" is not an infeasibility proof; the
		// reported lowest k is then only an upper bound.
		if !proven {
			out.Exact = false
		}
	}
	out.Elapsed = time.Since(start)
	return out, fmt.Errorf("refine: no refinement with θ=%d/%d within k ≤ %d", theta1, theta2, maxK)
}

// lowestKDownward walks k from the signature count (always feasible:
// one sort per signature set has σ = 1 for every rule with vacuous or
// full satisfaction on uniform sorts — verified before relying on it)
// down to the last feasible k. The relabel shortcut couples each step
// to the previous result.
func lowestKDownward(view *matrix.View, rule *rules.Rule, fn rules.Func, theta1, theta2 int64, opts SearchOptions, maxK int) (*Outcome, error) {
	start := time.Now()
	out := &Outcome{Theta1: theta1, Theta2: theta2, Exact: true}
	var lastGood *Refinement
	lastK := 0
	for k := maxK; k >= 1; k-- {
		p := &Problem{View: view, Rule: rule, Func: fn, K: k, Theta1: theta1, Theta2: theta2}
		ref, ok, proven, err := decide(p, &opts, newRestartSet(p, opts.Heuristic))
		if err != nil {
			return nil, err
		}
		out.Instances++
		if !ok {
			if !proven {
				out.Exact = false
			}
			break
		}
		lastGood = ref
		lastK = k
		// Shortcut: if the found refinement uses fewer non-empty sorts
		// than k, relabel it to that count (feasibility is per-sort, so
		// dropping empty sorts preserves it) and continue from there.
		relabel := map[int]int{}
		for _, s := range ref.Assignment {
			if _, seen := relabel[s]; !seen {
				relabel[s] = len(relabel)
			}
		}
		if m := len(relabel); m < k {
			compact := make(Assignment, len(ref.Assignment))
			for i, s := range ref.Assignment {
				compact[i] = relabel[s]
			}
			values, min, err := EvalAssignment(p.EvalFunc(), view, compact, m)
			if err != nil {
				return nil, err
			}
			lastGood = &Refinement{Assignment: compact, K: m, Values: values, MinSigma: min, Exact: ref.Exact}
			lastK = m
			k = m // loop decrement lands on m−1 next
		}
	}
	out.Elapsed = time.Since(start)
	if lastGood == nil {
		return out, fmt.Errorf("refine: no refinement with θ=%d/%d within k ≤ %d", theta1, theta2, maxK)
	}
	out.Refinement = lastGood
	out.K = lastK
	return out, nil
}
