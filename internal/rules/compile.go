package rules

import (
	"math/big"

	"repro/internal/matrix"
)

// This file is the structural rule compiler: it lowers any rule of at
// most two variables (without subject constants) onto the aggregate
// kernels of pair.go. The observation is the two-variable analogue of
// the closed forms: under a rough view of the matrix, a concrete
// assignment of (c1, c2) is characterized by the chosen columns
// (p1, p2), the two cell values (a, b) and whether the subjects
// coincide — and the number of assignments in each such bucket is
// determined by N_p, the co-occurrence counts C[p1][p2] and |S|:
//
//	n_ab(p1,p2)   = subjects with M[s,p1]=a ∧ M[s,p2]=b   (same subject)
//	cnt1(a)·cnt2(b) − n_ab                                 (distinct subjects)
//
// Every atom of the language has a fixed truth value inside a bucket,
// so σr is a sum of bucket weights over O(|P|²·8) buckets — O(1) when
// the antecedent pins both properties — instead of the rough
// evaluator's (|Λ|·|P|)^n enumeration. Compiled evaluators agree with
// Evaluate exactly (same Ratio), which randomized tests pin.

// cDomain is a per-variable restriction extracted from top-level
// antecedent conjuncts: a pinned property URI and/or a pinned cell
// value. Domains only prune the bucket loops — the full formula is
// still evaluated per bucket, so an over-constrained antecedent (e.g.
// two different pinned properties for one variable) stays correct: the
// skipped buckets would contribute zero weight anyway.
type cDomain struct {
	prop    string // pinned property URI
	hasProp bool
	val     int // pinned cell value, or −1
}

// extractDomains walks the top-level conjunction of the antecedent,
// mirroring Counter.domains but name-based (the compiler resolves
// columns per evaluation, not per view).
func extractDomains(f Formula, vpos map[string]int, doms []cDomain) {
	switch g := f.(type) {
	case And:
		extractDomains(g.L, vpos, doms)
		extractDomains(g.R, vpos, doms)
	case PropEqConst:
		doms[vpos[g.C]].prop, doms[vpos[g.C]].hasProp = g.U, true
	case ValEqConst:
		doms[vpos[g.C]].val = g.I
	}
}

// collectPropConsts gathers every property URI mentioned as a constant
// anywhere in the rule, so an evaluation resolves each name once.
func collectPropConsts(r *Rule) []string {
	seen := map[string]bool{}
	var out []string
	var walk func(f Formula)
	walk = func(f Formula) {
		switch g := f.(type) {
		case PropEqConst:
			if !seen[g.U] {
				seen[g.U] = true
				out = append(out, g.U)
			}
		case Not:
			walk(g.F)
		case And:
			walk(g.L)
			walk(g.R)
		case Or:
			walk(g.L)
			walk(g.R)
		}
	}
	walk(r.Antecedent)
	walk(r.Consequent)
	return out
}

// CompileRule lowers r onto the aggregate kernels when it mentions at
// most two variables and no subject constants. One-variable rules
// compile to a CountsFunc (or, when they mention property constants
// that need name resolution, a PairCountsFunc that reads no pair
// entries); two-variable rules compile to a PairCountsFunc whose
// NeededPairs is the pinned column pair when the antecedent pins both
// properties. Returns false for rules the compiler cannot lower, which
// stay on the generic rough-assignment evaluator.
func CompileRule(r *Rule) (Func, bool) {
	if hasSubjConst(r.Antecedent) || hasSubjConst(r.Consequent) {
		return nil, false
	}
	vars := r.Vars()
	vpos := make(map[string]int, len(vars))
	for i, s := range vars {
		vpos[s] = i
	}
	doms := make([]cDomain, len(vars))
	for i := range doms {
		doms[i].val = -1
	}
	extractDomains(r.Antecedent, vpos, doms)
	consts := collectPropConsts(r)
	switch len(vars) {
	case 1:
		c := compiled1{r: r, vpos: vpos, dom: doms[0], consts: consts}
		if len(consts) == 0 {
			return compiled1Counts{c}, true
		}
		return compiled1Pair{c}, true
	case 2:
		return compiled2{r: r, vpos: vpos, doms: [2]cDomain{doms[0], doms[1]}, consts: consts}, true
	}
	return nil, false
}

// bucket fixes the free coordinates of a rough two-cell assignment:
// columns, cell values, and subject coincidence. For one-variable rules
// only the first coordinate of each pair is meaningful.
type bucket struct {
	p1, p2 int
	b1, b2 bool
	same   bool
}

// constResolver holds the rule's property constants resolved against
// one evaluation's column space (−1 = absent). It lives on the
// caller's stack — kernels run once per candidate local-search move,
// so per-call map allocation is off the table. Lookups scan the tiny
// constant list (rules mention a handful of URIs at most).
type constResolver struct {
	names []string
	cols  [4]int
	extra []int // spill for rules with more than 4 constants
}

func (cr *constResolver) resolve(names []string, column func(string) (int, bool)) {
	cr.names = names
	for k, u := range names {
		c := -1
		if i, ok := column(u); ok {
			c = i
		}
		if k < len(cr.cols) {
			cr.cols[k] = c
		} else {
			cr.extra = append(cr.extra, c)
		}
	}
}

func (cr *constResolver) col(name string) int {
	for k, u := range cr.names {
		if u == name {
			if k < len(cr.cols) {
				return cr.cols[k]
			}
			return cr.extra[k-len(cr.cols)]
		}
	}
	return -1
}

// holdsBucket evaluates f inside a bucket. consts resolves every
// property constant of the rule to its column (−1 when absent from the
// column space). vpos maps variable names to slot 0/1.
func holdsBucket(f Formula, vpos map[string]int, bk *bucket, consts *constResolver) bool {
	bit := func(c string) bool {
		if vpos[c] == 1 {
			return bk.b2
		}
		return bk.b1
	}
	col := func(c string) int {
		if vpos[c] == 1 {
			return bk.p2
		}
		return bk.p1
	}
	switch g := f.(type) {
	case ValEqConst:
		return bit(g.C) == (g.I == 1)
	case ValEqVar:
		return bit(g.C1) == bit(g.C2)
	case PropEqConst:
		return col(g.C) == consts.col(g.U)
	case PropEqVar:
		return col(g.C1) == col(g.C2)
	case SubjEqVar:
		return vpos[g.C1] == vpos[g.C2] || bk.same
	case CellEq:
		if vpos[g.C1] == vpos[g.C2] {
			return true
		}
		return bk.same && bk.p1 == bk.p2
	case Not:
		return !holdsBucket(g.F, vpos, bk, consts)
	case And:
		return holdsBucket(g.L, vpos, bk, consts) && holdsBucket(g.R, vpos, bk, consts)
	case Or:
		return holdsBucket(g.L, vpos, bk, consts) || holdsBucket(g.R, vpos, bk, consts)
	}
	// SubjEqConst is rejected at compile time; anything else is a new
	// atom the compiler must be taught about.
	panic("rules: compiler cannot evaluate formula")
}

// pinnedCol resolves a variable's pinned property against the column
// space: −1 when the variable is unpinned (iterate all used columns),
// ok=false when the pinned property is absent or unused, making the
// rule vacuous. The kernels then filter the column loops in place —
// no used-column list is ever materialized, so evaluations allocate
// nothing beyond the returned Ratio.
func pinnedCol(dom cDomain, propCounts []int64, column func(string) (int, bool)) (int, bool) {
	if !dom.hasProp {
		return -1, true
	}
	i, ok := column(dom.prop)
	if !ok || propCounts[i] == 0 {
		return 0, false
	}
	return i, true
}

// valRange returns the cell-value loop bounds for one variable.
func valRange(dom cDomain) (lo, hi int) {
	if dom.val >= 0 {
		return dom.val, dom.val
	}
	return 0, 1
}

// compiled1 is the shared core of the one-variable kernels.
type compiled1 struct {
	r      *Rule
	vpos   map[string]int
	dom    cDomain
	consts []string
}

func (c compiled1) Name() string { return normalizeName(c.r.Name, c.r) }

func (c compiled1) Eval(v *matrix.View) (Ratio, error) {
	return c.kernel(v.PropertyCounts(), int64(v.NumSubjects()), v.PropertyIndex), nil
}

// kernel sums bucket weights over (column, value): a column p with
// value 1 hosts N_p assignments, with value 0 hosts |S|−N_p.
func (c compiled1) kernel(propCounts []int64, subjects int64, column func(string) (int, bool)) Ratio {
	var consts constResolver
	consts.resolve(c.consts, column)
	pin, ok := pinnedCol(c.dom, propCounts, column)
	if !ok {
		return NewRatio(0, 0)
	}
	lo, hi := valRange(c.dom)
	var tot, fav int64
	var bk bucket
	for p, np := range propCounts {
		if np == 0 || (pin >= 0 && p != pin) {
			continue
		}
		for a := lo; a <= hi; a++ {
			w := np
			if a == 0 {
				w = subjects - w
			}
			if w == 0 {
				continue
			}
			bk = bucket{p1: p, b1: a == 1}
			if !holdsBucket(c.r.Antecedent, c.vpos, &bk, &consts) {
				continue
			}
			tot += w
			if holdsBucket(c.r.Consequent, c.vpos, &bk, &consts) {
				fav += w
			}
		}
	}
	return NewRatio(fav, tot)
}

// compiled1Counts is a one-variable compiled rule without property
// constants: a CountsFunc that delta-scores in local search exactly like
// σCov and σSim.
type compiled1Counts struct{ compiled1 }

// EvalMoments sums the kernel's buckets in closed form. Without property
// constants no atom can tell one column from another (the antecedent
// pins none, and prop(c) = prop(c), c = c and subj(c) = subj(c) hold in
// every bucket), so a bucket's truth depends on the cell value alone.
// The value-1 buckets then weigh Σ N_p = Sum in total and the value-0
// buckets Σ (|S| − N_p) = Live·|S| − Sum over the live columns — the
// same integers the kernel adds up column by column.
func (c compiled1Counts) EvalMoments(m Moments, subjects int64) Ratio {
	var consts constResolver
	lo, hi := valRange(c.dom)
	var tot, fav int64
	for a := lo; a <= hi; a++ {
		w := m.Sum
		if a == 0 {
			w = m.Live*subjects - m.Sum
		}
		bk := bucket{b1: a == 1}
		if !holdsBucket(c.r.Antecedent, c.vpos, &bk, &consts) {
			continue
		}
		tot += w
		if holdsBucket(c.r.Consequent, c.vpos, &bk, &consts) {
			fav += w
		}
	}
	return NewRatio(fav, tot)
}

// compiled1Pair is a one-variable compiled rule that mentions property
// constants: it needs the aggregate's name resolution but reads no
// co-occurrence entries, so NeededPairs is empty (not nil).
type compiled1Pair struct{ compiled1 }

func (c compiled1Pair) EvalPairCounts(propCounts []int64, pc PairCounts, subjects int64) Ratio {
	return c.kernel(propCounts, subjects, pc.Column)
}

func (c compiled1Pair) NeededPairs() [][2]string { return [][2]string{} }

// compiled2 is a two-variable rule lowered onto the pair-count kernels.
type compiled2 struct {
	r      *Rule
	vpos   map[string]int
	doms   [2]cDomain
	consts []string
}

func (c compiled2) Name() string { return normalizeName(c.r.Name, c.r) }

// viewPairProbe adapts a view to the PairCounts read interface with
// on-demand bothCount probes — cheaper than materializing the full
// aggregate when the rule pins both properties and reads one entry.
type viewPairProbe struct{ v *matrix.View }

func (p viewPairProbe) Column(name string) (int, bool) { return p.v.PropertyIndex(name) }
func (p viewPairProbe) Both(i, j int) int64            { return bothCount(p.v, i, j) }

func (c compiled2) Eval(v *matrix.View) (Ratio, error) {
	var pc PairCounts = v.PairCounts()
	if c.NeededPairs() != nil {
		// Both properties pinned: probe the one demanded entry instead
		// of building the |P|² aggregate.
		pc = viewPairProbe{v}
	}
	return c.EvalPairCounts(v.PropertyCounts(), pc, int64(v.NumSubjects())), nil
}

// maxInt64KernelSubjects bounds the fast path of the two-variable
// kernel: per-pair bucket sums reach 8·|S|², which stays within int64
// for |S| ≤ 2³⁰. Above that the kernel switches to big.Int bucket
// weights (still O(|P|²·8) work — only the arithmetic widens).
const maxInt64KernelSubjects = 1 << 30

// EvalPairCounts sums bucket weights over (p1, p2, a, b, same-subject).
// Per column pair the eight bucket weights are derived from N_{p1},
// N_{p2}, C[p1][p2] and |S|, accumulated in int64 while |S| keeps
// 8·|S|² representable and in big.Int beyond, so the Ratio is exact at
// any scale.
func (c compiled2) EvalPairCounts(propCounts []int64, pc PairCounts, subjects int64) Ratio {
	var consts constResolver
	consts.resolve(c.consts, pc.Column)
	pin1, ok1 := pinnedCol(c.doms[0], propCounts, pc.Column)
	pin2, ok2 := pinnedCol(c.doms[1], propCounts, pc.Column)
	if !ok1 || !ok2 {
		return NewRatio(0, 0)
	}
	lo1, hi1 := valRange(c.doms[0])
	lo2, hi2 := valRange(c.doms[1])
	wide := subjects > maxInt64KernelSubjects
	tot, fav := new(big.Int), new(big.Int)
	var chunk, wideW, wideC2 big.Int
	var bk bucket
	for p1, n1 := range propCounts {
		if n1 == 0 || (pin1 >= 0 && p1 != pin1) {
			continue
		}
		for p2, n2 := range propCounts {
			if n2 == 0 || (pin2 >= 0 && p2 != pin2) {
				continue
			}
			n11 := pc.Both(p1, p2)
			// Subjects by (bit at p1, bit at p2).
			nab := [2][2]int64{
				{subjects - n1 - n2 + n11, n2 - n11},
				{n1 - n11, n11},
			}
			var ptot, pfav int64
			for _, same := range [2]bool{true, false} {
				for a := lo1; a <= hi1; a++ {
					for b := lo2; b <= hi2; b++ {
						var w int64
						var wBig *big.Int
						if same {
							w = nab[a][b]
						} else {
							c1 := n1
							if a == 0 {
								c1 = subjects - n1
							}
							c2 := n2
							if b == 0 {
								c2 = subjects - n2
							}
							if wide {
								// c1·c2 can exceed int64; widen the product.
								wBig = wideW.SetInt64(c1)
								wBig.Mul(wBig, wideC2.SetInt64(c2))
								wBig.Sub(wBig, wideC2.SetInt64(nab[a][b]))
								if wBig.Sign() == 0 {
									continue
								}
							} else {
								w = c1*c2 - nab[a][b]
							}
						}
						if wBig == nil && w == 0 {
							continue
						}
						bk = bucket{p1: p1, p2: p2, b1: a == 1, b2: b == 1, same: same}
						if !holdsBucket(c.r.Antecedent, c.vpos, &bk, &consts) {
							continue
						}
						if wBig != nil {
							tot.Add(tot, wBig)
							if holdsBucket(c.r.Consequent, c.vpos, &bk, &consts) {
								fav.Add(fav, wBig)
							}
							continue
						}
						ptot += w
						if holdsBucket(c.r.Consequent, c.vpos, &bk, &consts) {
							pfav += w
						}
					}
				}
			}
			if ptot != 0 {
				tot.Add(tot, chunk.SetInt64(ptot))
			}
			if pfav != 0 {
				fav.Add(fav, chunk.SetInt64(pfav))
			}
		}
	}
	return Ratio{Fav: fav, Tot: tot}
}

// NeededPairs reports the single demanded co-occurrence entry when the
// antecedent pins both variables' properties, nil otherwise.
func (c compiled2) NeededPairs() [][2]string {
	if c.doms[0].hasProp && c.doms[1].hasProp {
		return [][2]string{{c.doms[0].prop, c.doms[1].prop}}
	}
	return nil
}
