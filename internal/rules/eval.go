package rules

import (
	"fmt"
	"math/big"

	"repro/internal/matrix"
)

// Ratio is an exact favorable/total pair defining a structuredness
// value σ = Fav/Tot, with the paper's convention σ = 1 when Tot = 0.
type Ratio struct {
	Fav *big.Int
	Tot *big.Int
}

// NewRatio builds a Ratio from int64 counts.
func NewRatio(fav, tot int64) Ratio {
	return Ratio{Fav: big.NewInt(fav), Tot: big.NewInt(tot)}
}

// Value returns the structuredness value as a float64 in [0, 1].
func (r Ratio) Value() float64 {
	if r.Tot == nil || r.Tot.Sign() == 0 {
		return 1
	}
	// Both terms exact in a float64: IEEE division is correctly rounded,
	// so it returns the same float as the big.Rat conversion. A negative
	// Tot stays on big.Rat, which normalizes the sign (no −0).
	if r.Tot.IsInt64() && r.Fav.IsInt64() {
		fav, tot := r.Fav.Int64(), r.Tot.Int64()
		if tot > 0 && tot < 1<<53 && fav > -(1<<53) && fav < 1<<53 {
			return float64(fav) / float64(tot)
		}
	}
	f, _ := new(big.Rat).SetFrac(r.Fav, r.Tot).Float64()
	return f
}

// AtLeast reports whether Fav/Tot ≥ θ1/θ2 exactly (Tot = 0 counts as 1).
func (r Ratio) AtLeast(theta1, theta2 int64) bool {
	if r.Tot == nil || r.Tot.Sign() == 0 {
		return true
	}
	// Fav·θ2 ≥ Tot·θ1
	lhs := new(big.Int).Mul(r.Fav, big.NewInt(theta2))
	rhs := new(big.Int).Mul(r.Tot, big.NewInt(theta1))
	return lhs.Cmp(rhs) >= 0
}

func (r Ratio) String() string {
	if r.Tot == nil || r.Tot.Sign() == 0 {
		return "1 (vacuous)"
	}
	return fmt.Sprintf("%s/%s = %.4f", r.Fav, r.Tot, r.Value())
}

// cell identifies a cell of the expanded matrix: subject row and
// property column. Rows are (signature index, ordinal within the
// signature set).
type cell struct {
	sig, ord, prop int
}

// EvalNaive computes σr over the view by brute-force enumeration of all
// variable assignments over the expanded |S|×|P(D)| matrix — the direct
// transcription of the paper's semantics (Section 3.2). It is
// exponential in the number of variables and linear in |S|^n, so it is
// only usable on small views; it exists as the ground truth against
// which the rough-assignment evaluator and the closed forms are tested.
//
// Subject-constant atoms (subj(c)=u) are supported when the view
// retains subject URIs.
func EvalNaive(r *Rule, v *matrix.View) (Ratio, error) {
	vars := r.Vars()
	if len(vars) > 4 {
		return Ratio{}, fmt.Errorf("rules: naive evaluation limited to 4 variables, rule has %d", len(vars))
	}
	// Materialize rows and used columns.
	var rows []struct{ sig, ord int }
	for si, sg := range v.Signatures() {
		for o := 0; o < sg.Count; o++ {
			rows = append(rows, struct{ sig, ord int }{si, o})
		}
	}
	cols := usedColumns(v)
	nAssign := 1
	for range vars {
		nAssign *= len(rows) * len(cols)
		if nAssign > 50_000_000 {
			return Ratio{}, fmt.Errorf("rules: naive evaluation too large (%d rows × %d cols, %d vars)", len(rows), len(cols), len(vars))
		}
	}

	asg := make(map[string]cell, len(vars))
	var tot, fav int64
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			ok, err := satisfies(r.Antecedent, asg, v)
			if err != nil || !ok {
				return
			}
			tot++
			ok, _ = satisfies(r.Consequent, asg, v)
			if ok {
				fav++
			}
			return
		}
		for _, row := range rows {
			for _, p := range cols {
				asg[vars[i]] = cell{sig: row.sig, ord: row.ord, prop: p}
				rec(i + 1)
			}
		}
	}
	rec(0)
	return NewRatio(fav, tot), nil
}

func usedColumns(v *matrix.View) []int {
	counts := v.PropertyCounts()
	var cols []int
	for i, c := range counts {
		if c > 0 {
			cols = append(cols, i)
		}
	}
	return cols
}

func satisfies(f Formula, asg map[string]cell, v *matrix.View) (bool, error) {
	switch g := f.(type) {
	case ValEqConst:
		c := asg[g.C]
		bit := v.Signatures()[c.sig].Bits.Test(c.prop)
		return bit == (g.I == 1), nil
	case ValEqVar:
		c1, c2 := asg[g.C1], asg[g.C2]
		b1 := v.Signatures()[c1.sig].Bits.Test(c1.prop)
		b2 := v.Signatures()[c2.sig].Bits.Test(c2.prop)
		return b1 == b2, nil
	case PropEqConst:
		c := asg[g.C]
		return v.Properties()[c.prop] == g.U, nil
	case SubjEqConst:
		c := asg[g.C]
		subjects := v.Signatures()[c.sig].Subjects
		if subjects == nil {
			return false, fmt.Errorf("rules: subj(·)=constant requires a view with subjects")
		}
		return subjects[c.ord] == g.U, nil
	case PropEqVar:
		return asg[g.C1].prop == asg[g.C2].prop, nil
	case SubjEqVar:
		c1, c2 := asg[g.C1], asg[g.C2]
		return c1.sig == c2.sig && c1.ord == c2.ord, nil
	case CellEq:
		return asg[g.C1] == asg[g.C2], nil
	case Not:
		ok, err := satisfies(g.F, asg, v)
		return !ok, err
	case And:
		ok, err := satisfies(g.L, asg, v)
		if err != nil || !ok {
			return false, err
		}
		return satisfies(g.R, asg, v)
	case Or:
		ok, err := satisfies(g.L, asg, v)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
		return satisfies(g.R, asg, v)
	}
	return false, fmt.Errorf("rules: unknown formula %T", f)
}
