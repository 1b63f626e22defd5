package rules

import (
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
)

// RoughCell assigns a rule variable to a (signature, property) pair —
// the paper's "rough variable assignment" (Section 6), which fixes
// every variable's signature set and property column but not the
// concrete subject within the signature set.
type RoughCell struct {
	Sig  int // index into view.Signatures()
	Prop int // index into view.Properties()
}

// RoughAssignment holds one RoughCell per rule variable, in the order
// of Rule.Vars().
type RoughAssignment []RoughCell

// Counter computes count(ϕ1, τ, M) and count(ϕ1∧ϕ2, τ, M): the number
// of concrete variable assignments compatible with a rough assignment
// τ that satisfy the rule's antecedent (total cases) and the
// antecedent together with the consequent (favorable cases).
//
// The algorithm enumerates all set partitions of the rule variables
// into subject-coreference classes. Under a fixed τ and partition every
// atom of the language has a determined truth value, and the number of
// concrete assignments realizing the partition is a product of falling
// factorials: a signature set with n subjects hosting m distinct
// classes contributes n·(n−1)···(n−m+1).
type Counter struct {
	rule  *Rule
	view  *matrix.View
	vars  []string
	vpos  map[string]int
	parts [][]int // all partitions as class-id vectors (restricted growth strings)
}

// NewCounter validates the rule (no subj(c)=constant atoms, which are
// incompatible with signature-level counting and excluded by the
// paper's reduction) and precomputes partition structures.
func NewCounter(r *Rule, v *matrix.View) (*Counter, error) {
	if hasSubjConst(r.Antecedent) || hasSubjConst(r.Consequent) {
		return nil, fmt.Errorf("rules: subj(·)=constant not supported in rough counting")
	}
	vars := r.Vars()
	if len(vars) > 8 {
		return nil, fmt.Errorf("rules: rough counting limited to 8 variables, rule has %d", len(vars))
	}
	vpos := make(map[string]int, len(vars))
	for i, s := range vars {
		vpos[s] = i
	}
	return &Counter{
		rule:  r,
		view:  v,
		vars:  vars,
		vpos:  vpos,
		parts: enumeratePartitions(len(vars)),
	}, nil
}

// Vars returns the rule variables in τ order.
func (c *Counter) Vars() []string { return c.vars }

// enumeratePartitions returns every set partition of {0..n−1} encoded
// as restricted growth strings: p[i] is the class of element i, with
// p[0]=0 and p[i] ≤ max(p[0..i−1])+1.
func enumeratePartitions(n int) [][]int {
	var out [][]int
	p := make([]int, n)
	var rec func(i, maxSeen int)
	rec = func(i, maxSeen int) {
		if i == n {
			cp := make([]int, n)
			copy(cp, p)
			out = append(out, cp)
			return
		}
		for cls := 0; cls <= maxSeen+1; cls++ {
			p[i] = cls
			nm := maxSeen
			if cls > nm {
				nm = cls
			}
			rec(i+1, nm)
		}
	}
	if n == 0 {
		return [][]int{{}}
	}
	rec(0, -1)
	return out
}

// Count returns (total, favorable) counts for the rough assignment τ.
func (c *Counter) Count(tau RoughAssignment) (tot, fav *big.Int) {
	tot, fav = new(big.Int), new(big.Int)
	if len(tau) != len(c.vars) {
		panic("rules: rough assignment length mismatch")
	}
	sigs := c.view.Signatures()
	w := new(big.Int)
	for _, part := range c.parts {
		// Each class must have a consistent signature; classes sharing a
		// signature set consume distinct subjects from it.
		nClasses := 0
		for _, cls := range part {
			if cls+1 > nClasses {
				nClasses = cls + 1
			}
		}
		classSig := make([]int, nClasses)
		for i := range classSig {
			classSig[i] = -1
		}
		ok := true
		for vi, cls := range part {
			s := tau[vi].Sig
			if classSig[cls] == -1 {
				classSig[cls] = s
			} else if classSig[cls] != s {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Weight: per signature, falling factorial of its class count.
		perSig := map[int]int{}
		for _, s := range classSig {
			perSig[s]++
		}
		w.SetInt64(1)
		zero := false
		for s, m := range perSig {
			n := int64(sigs[s].Count)
			for j := int64(0); j < int64(m); j++ {
				if n-j <= 0 {
					zero = true
					break
				}
				w.Mul(w, big.NewInt(n-j))
			}
			if zero {
				break
			}
		}
		if zero || w.Sign() == 0 {
			continue
		}
		if !c.holds(c.rule.Antecedent, tau, part) {
			continue
		}
		tot.Add(tot, w)
		if c.holds(c.rule.Consequent, tau, part) {
			fav.Add(fav, w)
		}
	}
	return tot, fav
}

// Positive reports whether Count's total for τ is positive, without
// big-integer arithmetic or allocation: some coreference partition gives
// each class one signature, no signature more classes than it has
// subjects, and satisfies the antecedent.
func (c *Counter) Positive(tau RoughAssignment) bool {
	if len(tau) != len(c.vars) {
		panic("rules: rough assignment length mismatch")
	}
	sigs := c.view.Signatures()
	var classSig [8]int // NewCounter admits at most 8 variables
	for _, part := range c.parts {
		// Restricted growth: a class seen for the first time is numbered
		// nClasses.
		nClasses, ok := 0, true
		for vi, cls := range part {
			if cls == nClasses {
				classSig[cls] = tau[vi].Sig
				nClasses++
			} else if classSig[cls] != tau[vi].Sig {
				ok = false
				break
			}
		}
		for i := 0; ok && i < nClasses; i++ {
			m := 0
			for _, s := range classSig[:nClasses] {
				if s == classSig[i] {
					m++
				}
			}
			ok = m <= sigs[classSig[i]].Count
		}
		if ok && c.holds(c.rule.Antecedent, tau, part) {
			return true
		}
	}
	return false
}

// holds evaluates a formula under a rough assignment and a coreference
// partition; every atom is decidable.
func (c *Counter) holds(f Formula, tau RoughAssignment, part []int) bool {
	switch g := f.(type) {
	case ValEqConst:
		cl := tau[c.vpos[g.C]]
		return c.view.Signatures()[cl.Sig].Bits.Test(cl.Prop) == (g.I == 1)
	case ValEqVar:
		c1, c2 := tau[c.vpos[g.C1]], tau[c.vpos[g.C2]]
		b1 := c.view.Signatures()[c1.Sig].Bits.Test(c1.Prop)
		b2 := c.view.Signatures()[c2.Sig].Bits.Test(c2.Prop)
		return b1 == b2
	case PropEqConst:
		cl := tau[c.vpos[g.C]]
		return c.view.Properties()[cl.Prop] == g.U
	case PropEqVar:
		return tau[c.vpos[g.C1]].Prop == tau[c.vpos[g.C2]].Prop
	case SubjEqVar:
		return part[c.vpos[g.C1]] == part[c.vpos[g.C2]]
	case CellEq:
		i, j := c.vpos[g.C1], c.vpos[g.C2]
		return part[i] == part[j] && tau[i].Prop == tau[j].Prop
	case Not:
		return !c.holds(g.F, tau, part)
	case And:
		return c.holds(g.L, tau, part) && c.holds(g.R, tau, part)
	case Or:
		return c.holds(g.L, tau, part) || c.holds(g.R, tau, part)
	}
	panic(fmt.Sprintf("rules: unknown formula %T", f))
}

// varDomain describes the τ cells a variable can take without making
// the antecedent trivially false, derived from top-level conjuncts.
type varDomain struct {
	prop int // fixed property column, or −1
	val  int // required bit value (0/1), or −1
}

// domains extracts per-variable restrictions from the top-level
// conjunction of the antecedent: prop(c)=constant pins the column and
// val(c)=i pins the cell value. This prunes the τ enumeration (e.g.
// σDep rules touch only two columns).
func (c *Counter) domains() []varDomain {
	doms := make([]varDomain, len(c.vars))
	for i := range doms {
		doms[i] = varDomain{prop: -1, val: -1}
	}
	var walk func(f Formula)
	walk = func(f Formula) {
		switch g := f.(type) {
		case And:
			walk(g.L)
			walk(g.R)
		case PropEqConst:
			if idx, ok := c.view.PropertyIndex(g.U); ok {
				doms[c.vpos[g.C]].prop = idx
			} else {
				doms[c.vpos[g.C]].prop = -2 // property absent: antecedent unsatisfiable
			}
		case ValEqConst:
			doms[c.vpos[g.C]].val = g.I
		}
	}
	walk(c.rule.Antecedent)
	return doms
}

// Enumerate calls fn for every rough assignment over the view's
// signatures and used property columns that passes the domain pruning,
// until fn returns false. fn receives a τ that must not be retained
// across calls.
func (c *Counter) Enumerate(fn func(tau RoughAssignment) bool) { c.enumerateRestricted(-1, fn) }

// enumerateRestricted is Enumerate with the first variable's signature
// optionally pinned to firstSig (−1 = unrestricted) — the partition
// unit of the signature-parallel evaluator. All local state (τ, domain
// tables) is per-call, so concurrent restricted enumerations over one
// Counter are safe.
func (c *Counter) enumerateRestricted(firstSig int, fn func(tau RoughAssignment) bool) {
	cols := usedColumns(c.view)
	doms := c.domains()
	for _, d := range doms {
		if d.prop == -2 {
			return // an antecedent conjunct names a property absent from the view
		}
	}
	sigs := c.view.Signatures()
	tau := make(RoughAssignment, len(c.vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(c.vars) {
			return fn(tau)
		}
		d := doms[i]
		for si := range sigs {
			if i == 0 && firstSig >= 0 && si != firstSig {
				continue
			}
			var candidates []int
			if d.prop >= 0 {
				candidates = []int{d.prop}
			} else {
				candidates = cols
			}
			for _, p := range candidates {
				if d.prop >= 0 {
					// A pinned column must still be a used column of this view.
					used := false
					for _, uc := range cols {
						if uc == p {
							used = true
							break
						}
					}
					if !used {
						continue
					}
				}
				if d.val >= 0 && sigs[si].Bits.Test(p) != (d.val == 1) {
					continue
				}
				tau[i] = RoughCell{Sig: si, Prop: p}
				if !rec(i + 1) {
					return false
				}
			}
		}
		return true
	}
	rec(0)
}

// Evaluate computes σr over the view exactly via rough assignments:
// total(ϕ) = Σ_τ count(ϕ, τ, M). It is polynomial for a fixed rule
// ((|Λ|·|P|)^n rough assignments) instead of (|S|·|P|)^n for the naive
// evaluator — the compression that makes paper-scale datasets feasible.
func Evaluate(r *Rule, v *matrix.View) (Ratio, error) {
	c, err := NewCounter(r, v)
	if err != nil {
		return Ratio{}, err
	}
	tot, fav := new(big.Int), new(big.Int)
	c.Enumerate(func(tau RoughAssignment) bool {
		t, f := c.Count(tau)
		tot.Add(tot, t)
		fav.Add(fav, f)
		return true
	})
	return Ratio{Fav: fav, Tot: tot}, nil
}

// EvaluateParallel computes σr exactly like Evaluate, splitting the
// rough-assignment enumeration across workers by the first variable's
// signature index — the signature-parallel fallback for rules the
// compiler cannot lower. Each worker sums its chunks into local
// big.Int accumulators and the chunks are merged afterwards; exact
// integer addition is associative and commutative, so the result is
// bit-identical to Evaluate for every worker count.
func EvaluateParallel(r *Rule, v *matrix.View, workers int) (Ratio, error) {
	c, err := NewCounter(r, v)
	if err != nil {
		return Ratio{}, err
	}
	nSigs := v.NumSignatures()
	if workers > nSigs {
		workers = nSigs
	}
	if workers <= 1 {
		return Evaluate(r, v)
	}
	type chunk struct{ tot, fav *big.Int }
	res := make([]chunk, nSigs)
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				si := int(atomic.AddInt64(&next, 1))
				if si >= nSigs {
					return
				}
				tot, fav := new(big.Int), new(big.Int)
				c.enumerateRestricted(si, func(tau RoughAssignment) bool {
					t, f := c.Count(tau)
					tot.Add(tot, t)
					fav.Add(fav, f)
					return true
				})
				res[si] = chunk{tot: tot, fav: fav}
			}
		}()
	}
	wg.Wait()
	tot, fav := new(big.Int), new(big.Int)
	for _, ch := range res {
		tot.Add(tot, ch.tot)
		fav.Add(fav, ch.fav)
	}
	return Ratio{Fav: fav, Tot: tot}, nil
}
