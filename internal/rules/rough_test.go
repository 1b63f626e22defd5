package rules

import (
	"math/big"
	"math/rand"
	"repro/internal/bitset"
	"testing"
	"testing/quick"
)

func TestEnumeratePartitions(t *testing.T) {
	// Bell numbers: 1, 1, 2, 5, 15, 52.
	want := []int{1, 1, 2, 5, 15, 52}
	for n, w := range want {
		if got := len(enumeratePartitions(n)); got != w {
			t.Errorf("partitions(%d) = %d, want %d", n, got, w)
		}
	}
	// Every partition is a valid restricted growth string.
	for _, p := range enumeratePartitions(4) {
		maxSeen := -1
		for _, cls := range p {
			if cls > maxSeen+1 {
				t.Fatalf("invalid RGS %v", p)
			}
			if cls > maxSeen {
				maxSeen = cls
			}
		}
	}
}

func TestCounterCovByHand(t *testing.T) {
	// Two signatures: {p,q} ×3 and {p} ×2. Cov rule has one variable.
	v := mkView(t, []string{"p", "q"}, []string{"11", "10"}, []int{3, 2})
	c, err := NewCounter(CovRule(), v)
	if err != nil {
		t.Fatal(err)
	}
	// τ = (signature 0, column p): every subject of the signature is a
	// total case, and the cell value is 1 ⇒ all favorable.
	sig11 := v.SignatureOf(patternBits(2, "11"))
	sig10 := v.SignatureOf(patternBits(2, "10"))
	pCol, _ := v.PropertyIndex("p")
	qCol, _ := v.PropertyIndex("q")

	tot, fav := c.Count(RoughAssignment{{Sig: sig11, Prop: pCol}})
	if tot.Int64() != 3 || fav.Int64() != 3 {
		t.Fatalf("τ(11,p): tot=%v fav=%v, want 3/3", tot, fav)
	}
	// τ = (signature {p}, column q): 2 total cases (cells exist), value
	// 0 ⇒ no favorable.
	tot, fav = c.Count(RoughAssignment{{Sig: sig10, Prop: qCol}})
	if tot.Int64() != 2 || fav.Int64() != 0 {
		t.Fatalf("τ(10,q): tot=%v fav=%v, want 2/0", tot, fav)
	}
}

func TestCounterSimFallingFactorial(t *testing.T) {
	// One signature {p} with 4 subjects. Sim's two variables on the
	// same signature and column must consume distinct subjects:
	// 4·3 = 12 ordered pairs, all favorable.
	v := mkView(t, []string{"p"}, []string{"1"}, []int{4})
	c, err := NewCounter(SimRule(), v)
	if err != nil {
		t.Fatal(err)
	}
	tot, fav := c.Count(RoughAssignment{{Sig: 0, Prop: 0}, {Sig: 0, Prop: 0}})
	if tot.Int64() != 12 || fav.Int64() != 12 {
		t.Fatalf("tot=%v fav=%v, want 12/12", tot, fav)
	}
}

func TestCounterEnumerateRespectsDomains(t *testing.T) {
	v := mkView(t, []string{"p", "q"}, []string{"11", "10"}, []int{3, 2})
	// Dep rule pins both columns; enumeration must only emit τ with
	// those columns.
	c, err := NewCounter(DepRule("p", "q"), v)
	if err != nil {
		t.Fatal(err)
	}
	pCol, _ := v.PropertyIndex("p")
	qCol, _ := v.PropertyIndex("q")
	count := 0
	c.Enumerate(func(tau RoughAssignment) bool {
		count++
		if tau[0].Prop != pCol || tau[1].Prop != qCol {
			t.Fatalf("τ with wrong columns: %v", tau)
		}
		return true
	})
	// val(c1)=1 prunes signatures without p — both have p, so
	// 2 (sigs for c1) × 2 (sigs for c2) = 4.
	if count != 4 {
		t.Fatalf("enumerated %d τ, want 4", count)
	}
}

// Property: Σ_τ Count(τ) equals the totals from Evaluate for arbitrary
// small views — internal consistency of Enumerate + Count.
func TestQuickEnumerateCountConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomView(t, rng, 3, 4, 4)
		r := SimRule()
		c, err := NewCounter(r, v)
		if err != nil {
			return false
		}
		tot, fav := new(big.Int), new(big.Int)
		c.Enumerate(func(tau RoughAssignment) bool {
			tt, ff := c.Count(tau)
			tot.Add(tot, tt)
			fav.Add(fav, ff)
			return true
		})
		ev, err := Evaluate(r, v)
		if err != nil {
			return false
		}
		return tot.Cmp(ev.Tot) == 0 && fav.Cmp(ev.Fav) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The disjunctive dependency variant (Section 3.2's last example) has
// no closed form here; verify it against the naive evaluator and its
// intended meaning: P(subject has p2 or lacks p1).
func TestDepDisjRule(t *testing.T) {
	// Includes an all-zero signature (a subject with no properties),
	// which is a legal zero row of the view.
	v := mkView(t, []string{"p1", "p2"},
		[]string{"11", "10", "01", "00"}, []int{3, 2, 4, 1})
	r := DepDisjRule("p1", "p2")
	got, err := Evaluate(r, v)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := EvalNaive(r, v)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value() != naive.Value() {
		t.Fatalf("generic %v != naive %v", got.Value(), naive.Value())
	}
	// Semantics: favorable subjects = has p2 (7) + lacks p1 entirely
	// (5, of which 4 have p2 — avoid double counting: subjects with
	// val(c1)=0 or val(c2)=1: "11"→1, "10"→0, "01"→1, "00"→1 ⇒ 3+0+4+1=8
	// of 10 total subjects.
	want := 8.0 / 10.0
	if got.Value() != want {
		t.Fatalf("σDepDisj = %v, want %v", got.Value(), want)
	}
}

func patternBits(n int, pattern string) bitset.Set {
	b := bitset.New(n)
	for i := range pattern {
		if pattern[i] == '1' {
			b.Set(i)
		}
	}
	return b
}

// Positive must agree with Count's total > 0 on every enumerated τ,
// including rules whose antecedent needs distinct subjects from small
// signature sets (the falling-factorial multiplicity bound).
func TestQuickPositiveMatchesCount(t *testing.T) {
	ruleSrcs := []string{
		"c = c -> val(c) = 1",
		"!(c1 = c2) && prop(c1) = prop(c2) && val(c1) = 1 -> val(c2) = 1",
		"subj(c1) = subj(c2) && prop(c1) = <p0> && prop(c2) = <p1> -> val(c1) = 0 || val(c2) = 1",
		"!(subj(c1) = subj(c2)) && val(c1) = 1 -> val(c2) = 0",
		"!(subj(c1) = subj(c2)) && !(subj(c2) = subj(c3)) && !(subj(c1) = subj(c3)) -> val(c1) = val(c3)",
		"(subj(c1)=subj(c2) && val(c1)=1) -> val(c2)=1",
	}
	f := func(seed int64, ruleIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := MustParse(ruleSrcs[int(ruleIdx)%len(ruleSrcs)])
		c, err := NewCounter(r, randomView(t, rng, 3, 4, 3))
		if err != nil {
			return false
		}
		agree := true
		c.Enumerate(func(tau RoughAssignment) bool {
			tot, _ := c.Count(tau)
			agree = c.Positive(tau) == (tot.Sign() > 0)
			return agree
		})
		return agree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
