package rules

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/matrix"
)

// The moments-based incremental forms must agree exactly with the view
// evaluators on arbitrary views — they are what delta-scoring in the
// local search trusts.
func TestQuickCountsFuncsMatchViewEval(t *testing.T) {
	funcs := []CountsFunc{
		CovFunc().(CountsFunc),
		SimFunc().(CountsFunc),
		FuncForRule(MustParse("val(c) = 0 -> val(c) = 1")).(CountsFunc),
	}
	f := func(seed int64, fnIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		fn := funcs[int(fnIdx)%len(funcs)]
		nProps := rng.Intn(6) + 1
		props := make([]string, nProps)
		for i := range props {
			props[i] = "p" + string(rune('0'+i))
		}
		nSigs := rng.Intn(8) + 1
		var sigs []matrix.Signature
		for i := 0; i < nSigs; i++ {
			b := bitset.New(nProps)
			for j := 0; j < nProps; j++ {
				if rng.Intn(2) == 1 {
					b.Set(j)
				}
			}
			sigs = append(sigs, matrix.Signature{Bits: b, Count: rng.Intn(30) + 1})
		}
		v, err := matrix.New(props, sigs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fn.Eval(v)
		if err != nil {
			t.Fatal(err)
		}
		got := fn.EvalMoments(MomentsOf(v.PropertyCounts()), int64(v.NumSubjects()))
		if want.Fav.Cmp(got.Fav) != 0 || want.Tot.Cmp(got.Tot) != 0 {
			t.Logf("%s: Eval=%v EvalMoments=%v", fn.Name(), want, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Memoized view aggregates must be stable across repeated calls and
// match a fresh view built from the same signatures.
func TestViewAggregateMemoization(t *testing.T) {
	props := []string{"a", "b", "c"}
	mk := func() *matrix.View {
		b1 := bitset.New(3)
		b1.Set(0)
		b1.Set(1)
		b2 := bitset.New(3)
		b2.Set(2)
		v, err := matrix.New(props, []matrix.Signature{
			{Bits: b1, Count: 4}, {Bits: b2, Count: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	v, w := mk(), mk()
	if v.Ones() != w.Ones() || v.Ones() != 10 {
		t.Fatalf("Ones = %d and %d, want 10", v.Ones(), w.Ones())
	}
	c1 := v.PropertyCounts()
	c2 := v.PropertyCounts()
	if &c1[0] != &c2[0] {
		t.Fatal("PropertyCounts not memoized")
	}
	for i, want := range []int64{4, 4, 2} {
		if c1[i] != want {
			t.Fatalf("PropertyCounts[%d] = %d, want %d", i, c1[i], want)
		}
	}
}
