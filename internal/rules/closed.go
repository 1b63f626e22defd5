package rules

import (
	"fmt"
	"sync"

	"repro/internal/matrix"
	"repro/internal/metrics"
)

// This file provides the paper's named structuredness functions
// (Section 2.2) in two forms: as rules of the language (Section 3.2's
// encodings) and as closed-form evaluators over the signature view.
// The closed forms are algebraically derived from the rule semantics
// and verified against the generic evaluator in tests; they are what
// makes local search over candidate partitions fast (σCov and σSim read
// three running moments of the counts, so scoring a move costs
// O(popcount) instead of enumerating rough assignments).

// CovRule returns the rule expressing σCov: c = c ↦ val(c) = 1.
func CovRule() *Rule {
	return MustParse("c = c -> val(c) = 1")
}

// CovRuleIgnoring returns the σCov variant that ignores the given
// property columns (Section 3.2's "modified σCov" and the Section 7.4
// RDF-syntax exclusion).
func CovRuleIgnoring(props ...string) *Rule {
	ant := Formula(CellEq{C1: "c", C2: "c"})
	for _, p := range props {
		ant = And{ant, Not{PropEqConst{C: "c", U: p}}}
	}
	r, err := NewRule("Cov-ignoring", ant, ValEqConst{C: "c", I: 1})
	if err != nil {
		panic(err)
	}
	return r
}

// SimRule returns the rule expressing σSim:
// ¬(c1 = c2) ∧ prop(c1) = prop(c2) ∧ val(c1) = 1 ↦ val(c2) = 1.
func SimRule() *Rule {
	return MustParse("!(c1 = c2) && prop(c1) = prop(c2) && val(c1) = 1 -> val(c2) = 1")
}

// DepRule returns the rule expressing σDep[p1, p2].
func DepRule(p1, p2 string) *Rule {
	r := MustParse(fmt.Sprintf(
		"subj(c1) = subj(c2) && prop(c1) = <%s> && prop(c2) = <%s> && val(c1) = 1 -> val(c2) = 1",
		p1, p2))
	r.Name = fmt.Sprintf("Dep[%s,%s]", p1, p2)
	return r
}

// SymDepRule returns the rule expressing σSymDep[p1, p2].
func SymDepRule(p1, p2 string) *Rule {
	r := MustParse(fmt.Sprintf(
		"subj(c1) = subj(c2) && prop(c1) = <%s> && prop(c2) = <%s> && (val(c1) = 1 || val(c2) = 1) -> val(c1) = 1 && val(c2) = 1",
		p1, p2))
	r.Name = fmt.Sprintf("SymDep[%s,%s]", p1, p2)
	return r
}

// DepDisjRule returns the disjunctive dependency variant of Section
// 3.2: the probability that a random subject having p1 also has p2,
// vacuously counting subjects without p1.
func DepDisjRule(p1, p2 string) *Rule {
	r := MustParse(fmt.Sprintf(
		"subj(c1) = subj(c2) && prop(c1) = <%s> && prop(c2) = <%s> -> val(c1) = 0 || val(c2) = 1",
		p1, p2))
	r.Name = fmt.Sprintf("DepDisj[%s,%s]", p1, p2)
	return r
}

// Coverage computes σCov(D) = (Σsp M(D)sp) / (|S(D)|·|P(D)|) where
// P(D) counts only properties some subject of the view actually has.
func Coverage(v *matrix.View) Ratio {
	n := int64(v.NumSubjects())
	used := int64(v.UsedProperties())
	return NewRatio(v.Ones(), n*used)
}

// skipPool recycles the CoverageIgnoring scratch slices (as *[]bool,
// reusing the pooled box so a call allocates nothing). Entries are
// always returned all-false, so a pooled slice (or a longer prefix of
// one) is ready to use as-is.
var skipPool sync.Pool

func getSkip(n int) *[]bool {
	if p, ok := skipPool.Get().(*[]bool); ok {
		if cap(*p) >= n {
			*p = (*p)[:n]
			return p
		}
		// Too small: replace the backing array, keep the box.
		*p = make([]bool, n)
		return p
	}
	s := make([]bool, n)
	return &s
}

// CoverageIgnoring computes σCov over the view with the given columns
// removed from both numerator and denominator. The excluded-column set
// is a pooled scratch bool slice indexed by column — no per-call map
// allocation and no hashed lookup inside the counts loop, which matters
// because σCov-ignoring variants are evaluated per candidate sort in
// local search.
func CoverageIgnoring(v *matrix.View, ignore ...string) Ratio {
	counts := v.PropertyCounts()
	sp := getSkip(len(counts))
	skip := *sp
	for _, p := range ignore {
		if i, ok := v.PropertyIndex(p); ok {
			skip[i] = true
		}
	}
	var ones, used int64
	for i, c := range counts {
		if skip[i] || c == 0 {
			continue
		}
		used++
		ones += c
	}
	for _, p := range ignore {
		if i, ok := v.PropertyIndex(p); ok {
			skip[i] = false
		}
	}
	skipPool.Put(sp)
	return NewRatio(ones, int64(v.NumSubjects())*used)
}

// Similarity computes σSim(D): the probability that a random property
// p of a random subject s (with s having p) is also had by a second
// random subject s′ ≠ s. Closed form:
//
//	fav = Σ_p N_p·(N_p − 1),  tot = Σ_p N_p·(N − 1)
func Similarity(v *matrix.View) Ratio {
	n := int64(v.NumSubjects())
	var fav, tot int64
	for _, np := range v.PropertyCounts() {
		fav += np * (np - 1)
		tot += np * (n - 1)
	}
	return NewRatio(fav, tot)
}

// sigScans counts full signature-list scans performed by bothCount —
// instrumentation for the compiled-evaluator ablation (BenchmarkRefineDep
// asserts the pair-count kernels do orders of magnitude fewer of these
// per local-search iteration than the scan-per-evaluation baseline).
// It is a metrics.Counter rather than a bare atomic so the serving
// stack can attach it to its registry (Registry.AttachCounter) and the
// scan rate shows up in GET /metrics.
var sigScans metrics.Counter

// SignatureScans returns the cumulative number of full signature-list
// scans performed by the pairwise closed forms since process start.
// Read-before/read-after deltas instrument benchmarks and tests; the
// single atomic add per scan is noise next to the scan itself.
func SignatureScans() int64 { return sigScans.Value() }

// SignatureScanCounter returns the scan counter itself, for
// registration in a metrics registry.
func SignatureScanCounter() *metrics.Counter { return &sigScans }

// bothCount returns the number of subjects having both columns by
// scanning the signature list with two direct bit tests per signature —
// the measured optimum for probing a single column pair, where a
// word-parallel AndCount over a two-bit mask only inspects wasted
// words. Word-parallel counting instead powers the dense
// matrix.View.PairCounts build, which amortizes whole-matrix
// construction across all pairs at once; the crossover between probing
// pairs here and building the full aggregate there is recorded in
// EXPERIMENTS.md. Evaluators that hold a PairCounts aggregate never
// call this.
func bothCount(v *matrix.View, i, j int) int64 {
	sigScans.Add(1)
	var both int64
	for _, sg := range v.Signatures() {
		if sg.Bits.Test(i) && sg.Bits.Test(j) {
			both += int64(sg.Count)
		}
	}
	return both
}

// Dep computes σDep[p1, p2](D): the probability that a random subject
// having p1 also has p2. Vacuously 1 when either column is absent from
// the view's used properties (no total cases — the Fig. 4c effect).
func Dep(v *matrix.View, p1, p2 string) Ratio {
	i, ok1 := v.PropertyIndex(p1)
	j, ok2 := v.PropertyIndex(p2)
	if !ok1 || !ok2 {
		return NewRatio(0, 0)
	}
	counts := v.PropertyCounts()
	if counts[i] == 0 || counts[j] == 0 {
		return NewRatio(0, 0)
	}
	return NewRatio(bothCount(v, i, j), counts[i])
}

// SymDep computes σSymDep[p1, p2](D): the probability that a random
// subject having p1 or p2 has both.
func SymDep(v *matrix.View, p1, p2 string) Ratio {
	i, ok1 := v.PropertyIndex(p1)
	j, ok2 := v.PropertyIndex(p2)
	if !ok1 || !ok2 {
		return NewRatio(0, 0)
	}
	counts := v.PropertyCounts()
	if counts[i] == 0 || counts[j] == 0 {
		return NewRatio(0, 0)
	}
	both := bothCount(v, i, j)
	either := counts[i] + counts[j] - both
	return NewRatio(both, either)
}

// DepDisjEval computes σDepDisj[p1, p2](D), the disjunctive dependency
// of Section 3.2: the probability that a random subject lacks p1 or has
// p2, i.e. (|S| − N_{p1} + both) / |S|. Vacuous when either column is
// absent or empty, matching the rule's antecedent (which pins both
// properties) under the generic evaluator.
func DepDisjEval(v *matrix.View, p1, p2 string) Ratio {
	i, ok1 := v.PropertyIndex(p1)
	j, ok2 := v.PropertyIndex(p2)
	if !ok1 || !ok2 {
		return NewRatio(0, 0)
	}
	counts := v.PropertyCounts()
	if counts[i] == 0 || counts[j] == 0 {
		return NewRatio(0, 0)
	}
	n := int64(v.NumSubjects())
	return NewRatio(n-counts[i]+bothCount(v, i, j), n)
}

// Func is a structuredness function σ: it assigns to every view an
// exact Ratio in [0, 1]. All named measures and every parsed rule
// satisfy this interface.
type Func interface {
	Name() string
	Eval(v *matrix.View) (Ratio, error)
}

// Moments are the three column statistics of a (sub-)dataset's
// per-property subject counts N_p that the counts-only measures read:
// Sum = Σ N_p, SumSq = Σ N_p² and Live = #{p : N_p > 0}. All three are
// additive over the columns, so moving a signature set between sorts
// updates them in O(popcount) — only the set's own columns change.
type Moments struct {
	Sum, SumSq, Live int64
}

// MomentsOf computes the moments of a count vector in O(|P|).
func MomentsOf(counts []int64) Moments {
	var m Moments
	for _, c := range counts {
		m = m.Move(0, c)
	}
	return m
}

// Move returns m with one column's count changed from old to nw.
func (m Moments) Move(old, nw int64) Moments {
	m.Sum += nw - old
	m.SumSq += nw*nw - old*old
	if old > 0 {
		m.Live--
	}
	if nw > 0 {
		m.Live++
	}
	return m
}

// CountsFunc is implemented by measures whose value on any view is a
// function of the moments of the view's per-property subject counts N_p
// and of its subject count |S| alone — true of the closed forms σCov and
// σSim and of compiled one-variable rules. It is the contract behind
// delta-scoring in local search: moving one signature set between
// candidate sorts updates the running moments in O(popcount), so a
// candidate move is scored without materializing a subset view.
type CountsFunc interface {
	Func
	// EvalMoments computes σ of a (sub-)dataset from the moments of its
	// per-property subject counts and its subject count. It must agree
	// exactly with Eval on the corresponding view.
	EvalMoments(m Moments, subjects int64) Ratio
}

// closedFunc wraps a closed-form evaluator.
type closedFunc struct {
	name string
	eval func(v *matrix.View) Ratio
}

func (c closedFunc) Name() string                       { return c.name }
func (c closedFunc) Eval(v *matrix.View) (Ratio, error) { return c.eval(v), nil }

// covFunc is σCov with a counts-based incremental form.
type covFunc struct{}

func (covFunc) Name() string                       { return "Cov" }
func (covFunc) Eval(v *matrix.View) (Ratio, error) { return Coverage(v), nil }

// EvalMoments mirrors Coverage: ones / (|S|·used) over the used columns.
func (covFunc) EvalMoments(m Moments, subjects int64) Ratio {
	return NewRatio(m.Sum, subjects*m.Live)
}

// simFunc is σSim with a counts-based incremental form.
type simFunc struct{}

func (simFunc) Name() string                       { return "Sim" }
func (simFunc) Eval(v *matrix.View) (Ratio, error) { return Similarity(v), nil }

// EvalMoments mirrors Similarity: Σ N_p(N_p−1) / Σ N_p(|S|−1).
func (simFunc) EvalMoments(m Moments, subjects int64) Ratio {
	return NewRatio(m.SumSq-m.Sum, m.Sum*(subjects-1))
}

// CovFunc returns σCov as a Func (closed form, counts-incremental).
func CovFunc() Func { return covFunc{} }

// SimFunc returns σSim as a Func (closed form, counts-incremental).
func SimFunc() Func { return simFunc{} }

// DepFunc returns σDep[p1,p2] as a Func (closed form, pair-counts
// incremental: the result also implements PairCountsFunc and
// PairDemands).
func DepFunc(p1, p2 string) Func { return depFunc{p1, p2} }

// SymDepFunc returns σSymDep[p1,p2] as a Func (closed form,
// pair-counts incremental).
func SymDepFunc(p1, p2 string) Func { return symDepFunc{p1, p2} }

// DepDisjFunc returns σDepDisj[p1,p2] as a Func (closed form,
// pair-counts incremental).
func DepDisjFunc(p1, p2 string) Func { return depDisjFunc{p1, p2} }

// CovIgnoringFunc returns the σCov variant excluding columns.
func CovIgnoringFunc(ignore ...string) Func {
	return closedFunc{"Cov-ignoring",
		func(v *matrix.View) Ratio { return CoverageIgnoring(v, ignore...) }}
}

// RuleFunc evaluates an arbitrary rule with the generic
// rough-assignment evaluator.
type RuleFunc struct {
	R *Rule
	// Workers splits the rough-assignment enumeration across goroutines
	// (EvaluateParallel); 0 or 1 evaluates sequentially. The result is
	// bit-identical for every value.
	Workers int
}

// Name returns the rule's label.
func (rf RuleFunc) Name() string { return normalizeName(rf.R.Name, rf.R) }

// Eval computes σr exactly.
func (rf RuleFunc) Eval(v *matrix.View) (Ratio, error) {
	if rf.Workers > 1 {
		return EvaluateParallel(rf.R, v, rf.Workers)
	}
	return Evaluate(rf.R, v)
}

// FuncForRule returns the fastest exact evaluator for r, in descending
// order of specialization: a closed form when r is recognized as one of
// the named measures (matched structurally), a compiled counts/
// pair-counts kernel when r mentions at most two variables and no
// subject constants (CompileRule), and the generic rough-assignment
// evaluator otherwise. All tiers agree exactly — same Ratio, not merely
// the same float — which the randomized equivalence tests pin.
func FuncForRule(r *Rule) Func {
	if r.String() == CovRule().String() {
		return CovFunc()
	}
	if r.String() == SimRule().String() {
		return SimFunc()
	}
	if p1, p2, ok := matchDep(r); ok {
		return DepFunc(p1, p2)
	}
	if p1, p2, ok := matchSymDep(r); ok {
		return SymDepFunc(p1, p2)
	}
	if p1, p2, ok := matchDepDisj(r); ok {
		return DepDisjFunc(p1, p2)
	}
	if fn, ok := CompileRule(r); ok {
		return fn
	}
	return RuleFunc{R: r}
}

func matchDep(r *Rule) (p1, p2 string, ok bool) {
	ps := twoPropConsts(r)
	if ps == nil {
		return "", "", false
	}
	if r.String() == DepRule(ps[0], ps[1]).String() {
		return ps[0], ps[1], true
	}
	return "", "", false
}

func matchSymDep(r *Rule) (p1, p2 string, ok bool) {
	ps := twoPropConsts(r)
	if ps == nil {
		return "", "", false
	}
	if r.String() == SymDepRule(ps[0], ps[1]).String() {
		return ps[0], ps[1], true
	}
	return "", "", false
}

func matchDepDisj(r *Rule) (p1, p2 string, ok bool) {
	ps := twoPropConsts(r)
	if ps == nil {
		return "", "", false
	}
	if r.String() == DepDisjRule(ps[0], ps[1]).String() {
		return ps[0], ps[1], true
	}
	return "", "", false
}

// twoPropConsts extracts the first two prop(·)=constant URIs in
// antecedent order, or nil.
func twoPropConsts(r *Rule) []string {
	var ps []string
	var walk func(f Formula)
	walk = func(f Formula) {
		switch g := f.(type) {
		case And:
			walk(g.L)
			walk(g.R)
		case PropEqConst:
			ps = append(ps, g.U)
		}
	}
	walk(r.Antecedent)
	if len(ps) == 2 {
		return ps
	}
	return nil
}
