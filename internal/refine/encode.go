package refine

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/ilp"
	"repro/internal/rules"
)

// EncodeOptions configures the ILP encoding.
type EncodeOptions struct {
	// SymmetryBreaking adds the paper's hash-ordering constraints
	// hash(i) ≤ hash(i+1) (Section 6.3) to remove permutation-equivalent
	// solutions.
	SymmetryBreaking bool
	// MaxHashExponent caps the 2^j coefficients of the hash function to
	// avoid overflow, at the cost of hash collisions (also discussed in
	// Section 6.3). 0 means the default of 40.
	MaxHashExponent int
	// MaxTVars aborts encoding with ErrTooLarge when k·|τ| exceeds the
	// cap (0 = unlimited). The auto engine uses this to route oversized
	// instances to the heuristic.
	MaxTVars int
}

// ErrTooLarge reports that an encoding exceeded EncodeOptions.MaxTVars.
var ErrTooLarge = fmt.Errorf("refine: ILP encoding exceeds size cap")

// Encoding is the paper's ILP instance for one
// EXISTSSORTREFINEMENT(r) problem (Section 6): variables X (signature
// placement), U (property usage), T (rough-assignment consistency), the
// linearization constraints tying them together, and one threshold
// inequality per implicit sort.
type Encoding struct {
	Model *ilp.Model
	// X[i][μ] = 1 iff signature μ is placed in implicit sort i.
	X [][]ilp.Var
	// U[i][p] = 1 iff implicit sort i uses property p.
	U [][]ilp.Var
	// T[i][t] = 1 iff rough assignment Taus[t] is consistent in sort i.
	T [][]ilp.Var
	// Taus lists the retained rough assignments (count(ϕ1, τ, M) > 0).
	Taus []rules.RoughAssignment
	// Tot and Fav are count(ϕ1, τ, M) and count(ϕ1∧ϕ2, τ, M) per τ.
	Tot, Fav []int64

	k        int
	numSigs  int
	numProps int
}

// Encode builds the ILP instance for the problem. The rule must avoid
// subj(·)=constant atoms. Counts that overflow int64 coefficients are
// reported as errors (they do not arise at the paper's scales).
func Encode(p *Problem, opts EncodeOptions) (*Encoding, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Rule == nil {
		return nil, fmt.Errorf("refine: ILP encoding requires a rule")
	}
	counter, err := rules.NewCounter(p.Rule, p.View)
	if err != nil {
		return nil, err
	}
	n := len(counter.Vars())
	view := p.View
	k := p.K

	enc := &Encoding{
		Model:    &ilp.Model{},
		k:        k,
		numSigs:  view.NumSignatures(),
		numProps: view.NumProperties(),
	}
	m := enc.Model

	// Collect the rough assignments with positive total count, deciding
	// the size cap before any big-integer counting: ErrTooLarge fires on
	// the same τ count as counting first would, without paying Count for
	// an encoding that is thrown away.
	tooLarge := false
	counter.Enumerate(func(tau rules.RoughAssignment) bool {
		if !counter.Positive(tau) {
			return true
		}
		enc.Taus = append(enc.Taus, append(rules.RoughAssignment(nil), tau...))
		tooLarge = opts.MaxTVars > 0 && k*len(enc.Taus) > opts.MaxTVars
		return !tooLarge
	})
	if tooLarge {
		return nil, ErrTooLarge
	}
	// The counts are constants of the ILP instance, computed offline
	// against the full view (Section 6.2).
	for _, tau := range enc.Taus {
		tot, fav := counter.Count(tau)
		if !tot.IsInt64() || !fav.IsInt64() {
			return nil, fmt.Errorf("refine: count overflow for τ=%v", tau)
		}
		enc.Tot = append(enc.Tot, tot.Int64())
		enc.Fav = append(enc.Fav, fav.Int64())
	}

	// Variables.
	enc.X = make([][]ilp.Var, k)
	enc.U = make([][]ilp.Var, k)
	enc.T = make([][]ilp.Var, k)
	for i := 0; i < k; i++ {
		enc.X[i] = make([]ilp.Var, enc.numSigs)
		for mu := 0; mu < enc.numSigs; mu++ {
			enc.X[i][mu] = m.Binary(fmt.Sprintf("X[%d,%d]", i, mu))
		}
	}
	for i := 0; i < k; i++ {
		enc.U[i] = make([]ilp.Var, enc.numProps)
		for pr := 0; pr < enc.numProps; pr++ {
			enc.U[i][pr] = m.Binary(fmt.Sprintf("U[%d,%d]", i, pr))
		}
	}
	for i := 0; i < k; i++ {
		enc.T[i] = make([]ilp.Var, len(enc.Taus))
		for t := range enc.Taus {
			enc.T[i][t] = m.Binary(fmt.Sprintf("T[%d,%d]", i, t))
		}
	}

	// Each signature in exactly one sort.
	for mu := 0; mu < enc.numSigs; mu++ {
		terms := make([]ilp.Term, k)
		for i := 0; i < k; i++ {
			terms[i] = ilp.Term{Var: enc.X[i][mu], Coef: 1}
		}
		m.Add(fmt.Sprintf("place[%d]", mu), terms, ilp.EQ, 1)
	}

	// U[i][p] = 1 iff sort i contains a signature with p in its support.
	sigs := view.Signatures()
	withProp := make([][]int, enc.numProps) // property -> signatures supporting it
	for mu, sg := range sigs {
		for _, pr := range sg.Support() {
			withProp[pr] = append(withProp[pr], mu)
		}
	}
	for i := 0; i < k; i++ {
		for pr := 0; pr < enc.numProps; pr++ {
			for _, mu := range withProp[pr] {
				// X[i][μ] ≤ U[i][p]
				m.Add("supp", []ilp.Term{{Var: enc.X[i][mu], Coef: 1}, {Var: enc.U[i][pr], Coef: -1}}, ilp.LE, 0)
			}
			// U[i][p] ≤ Σ_{μ: p∈supp(μ)} X[i][μ]
			terms := []ilp.Term{{Var: enc.U[i][pr], Coef: 1}}
			for _, mu := range withProp[pr] {
				terms = append(terms, ilp.Term{Var: enc.X[i][mu], Coef: -1})
			}
			m.Add("use", terms, ilp.LE, 0)
		}
	}

	// T[i][τ] = 1 iff every signature and property mentioned by τ is
	// present/used in sort i (the paper's two linearization inequalities).
	for i := 0; i < k; i++ {
		for t, tau := range enc.Taus {
			sum := make([]ilp.Term, 0, 2*n+1)
			for _, rc := range tau {
				sum = append(sum, ilp.Term{Var: enc.X[i][rc.Sig], Coef: 1})
				sum = append(sum, ilp.Term{Var: enc.U[i][rc.Prop], Coef: 1})
			}
			// Σ(X+U) − T ≤ 2n − 1
			m.Add("lin1", append(append([]ilp.Term(nil), sum...),
				ilp.Term{Var: enc.T[i][t], Coef: -1}), ilp.LE, int64(2*n-1))
			// 2n·T − Σ(X+U) ≤ 0
			neg := make([]ilp.Term, 0, 2*n+1)
			neg = append(neg, ilp.Term{Var: enc.T[i][t], Coef: int64(2 * n)})
			for _, s := range sum {
				neg = append(neg, ilp.Term{Var: s.Var, Coef: -s.Coef})
			}
			m.Add("lin2", neg, ilp.LE, 0)
		}
	}

	// Threshold per sort: Σ_τ (θ2·fav − θ1·tot)·T[i][τ] ≥ 0.
	for i := 0; i < k; i++ {
		terms := make([]ilp.Term, 0, len(enc.Taus))
		for t := range enc.Taus {
			coef := new(big.Int).Mul(big.NewInt(p.Theta2), big.NewInt(enc.Fav[t]))
			coef.Sub(coef, new(big.Int).Mul(big.NewInt(p.Theta1), big.NewInt(enc.Tot[t])))
			if !coef.IsInt64() {
				return nil, fmt.Errorf("refine: threshold coefficient overflow")
			}
			if c := coef.Int64(); c != 0 {
				terms = append(terms, ilp.Term{Var: enc.T[i][t], Coef: c})
			}
		}
		m.Add(fmt.Sprintf("theta[%d]", i), terms, ilp.GE, 0)
	}

	// Symmetry breaking: hash(i) ≤ hash(i+1) with capped exponents.
	if opts.SymmetryBreaking && k > 1 {
		maxExp := opts.MaxHashExponent
		if maxExp <= 0 {
			maxExp = 40
		}
		coef := func(j int) int64 {
			if j > maxExp {
				j = maxExp
			}
			return int64(1) << uint(j)
		}
		for i := 0; i+1 < k; i++ {
			terms := make([]ilp.Term, 0, 2*enc.numSigs)
			for mu := 0; mu < enc.numSigs; mu++ {
				terms = append(terms, ilp.Term{Var: enc.X[i][mu], Coef: coef(mu)})
				terms = append(terms, ilp.Term{Var: enc.X[i+1][mu], Coef: -coef(mu)})
			}
			m.Add(fmt.Sprintf("sym[%d]", i), terms, ilp.LE, 0)
		}
	}

	// Branching hints: decide X first (largest signatures first), then
	// U; T variables are functionally determined and propagate.
	order := make([]int, enc.numSigs)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return sigs[order[a]].Count > sigs[order[b]].Count })
	var prio []ilp.Var
	for _, mu := range order {
		for i := 0; i < k; i++ {
			prio = append(prio, enc.X[i][mu])
		}
	}
	for i := 0; i < k; i++ {
		prio = append(prio, enc.U[i]...)
	}
	m.SetPriority(prio)
	return enc, nil
}

// DecodeAssignment extracts the signature→sort assignment from a
// feasible solution vector.
func (e *Encoding) DecodeAssignment(values []int64) (Assignment, error) {
	assign := make(Assignment, e.numSigs)
	for mu := 0; mu < e.numSigs; mu++ {
		found := -1
		for i := 0; i < e.k; i++ {
			if values[e.X[i][mu]] == 1 {
				if found >= 0 {
					return nil, fmt.Errorf("refine: signature %d placed in sorts %d and %d", mu, found, i)
				}
				found = i
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("refine: signature %d unplaced", mu)
		}
		assign[mu] = found
	}
	return assign, nil
}

// SolveExact encodes and solves the problem with the pseudo-Boolean
// engine, returning a refinement on feasibility. Status Unknown is
// reported via error ErrBudget.
func SolveExact(p *Problem, opts EncodeOptions, solverOpts ilp.Options) (*Refinement, bool, error) {
	enc, err := Encode(p, opts)
	if err != nil {
		return nil, false, err
	}
	res := ilp.SolvePB(enc.Model, solverOpts)
	switch res.Status {
	case ilp.StatusInfeasible:
		return nil, false, nil
	case ilp.StatusUnknown:
		return nil, false, ErrBudget
	}
	assign, err := enc.DecodeAssignment(res.Values)
	if err != nil {
		return nil, false, err
	}
	values, min, err := EvalAssignment(p.EvalFunc(), p.View, assign, p.K)
	if err != nil {
		return nil, false, err
	}
	return &Refinement{Assignment: assign, K: p.K, Values: values, MinSigma: min, Exact: true}, true, nil
}

// ErrBudget reports that a solver hit its work limit without deciding.
var ErrBudget = fmt.Errorf("refine: solver budget exhausted")
