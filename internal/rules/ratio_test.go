package rules

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ratValue is Value's reference: the nearest float64 to Fav/Tot.
func ratValue(r Ratio) float64 {
	if r.Tot.Sign() == 0 {
		return 1
	}
	f, _ := new(big.Rat).SetFrac(r.Fav, r.Tot).Float64()
	return f
}

// Value's float division must return exactly the big.Rat rounding,
// including the sign of zero, on both sides of the 2⁵³ cut-over.
func TestRatioValueMatchesBigRat(t *testing.T) {
	const p53 = int64(1) << 53
	edges := []int64{0, 1, 2, 3, 7, 100, p53 - 2, p53 - 1, p53, p53 + 1, p53 + 2, math.MaxInt64 - 1, math.MaxInt64}
	var cases [][2]int64
	for _, tot := range edges {
		for _, fav := range edges {
			cases = append(cases, [2]int64{fav, tot}, [2]int64{-fav, tot}, [2]int64{fav, -tot})
		}
		cases = append(cases, [2]int64{tot, tot}) // Fav = Tot
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200_000; i++ {
		// Mix magnitudes so the fast path and the fallback both get
		// random operands, with Fav ≤ Tot as σ ratios have.
		tot := rng.Int63n(int64(1) << uint(1+rng.Intn(62)))
		fav := rng.Int63n(tot + 1)
		if rng.Intn(8) == 0 {
			fav = -fav
		}
		cases = append(cases, [2]int64{fav, tot})
	}
	for _, c := range cases {
		r := NewRatio(c[0], c[1])
		got, want := r.Value(), ratValue(r)
		if got != want || math.Signbit(got) != math.Signbit(want) {
			t.Fatalf("%d/%d: Value = %v (%b), big.Rat = %v (%b)", c[0], c[1], got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// Operands wider than int64 stay exact.
	huge := Ratio{Fav: new(big.Int).Lsh(big.NewInt(3), 70), Tot: new(big.Int).Lsh(big.NewInt(7), 70)}
	if got, want := huge.Value(), ratValue(huge); got != want {
		t.Fatalf("wide ratio: Value = %v, big.Rat = %v", got, want)
	}
}
