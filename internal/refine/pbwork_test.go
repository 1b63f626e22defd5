package refine

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/ilp"
	"repro/internal/matrix"
	"repro/internal/rules"
)

// Work pins for the exact engine on the paper's two datasets, encoded
// the way the repository benchmark encodes them (σCov, k = 2, symmetry
// breaking). Decisions and conflicts are pinned exactly: they fix the
// search tree, which the slack-ordered propagation must not change. The
// examined-term count is capped about 10 % above its measured value, so
// a propagation that rescans more than it needs fails here rather than
// only in a timed run.
func TestSolvePBWorkPins(t *testing.T) {
	for _, c := range []struct {
		name      string
		view      func() *matrix.View
		theta1    int64
		budget    int64
		status    ilp.Status
		decisions int64
		conflicts int64
		maxTerms  int64
	}{
		// θ* + 1 on the Persons 1 % dump: the infeasibility proof. A
		// full rescan of every dirty constraint examined 5 568 932 terms;
		// the slack-ordered scan examines 266 158.
		{"persons-1pct-theta70", func() *matrix.View { return datagen.DBpediaPersons(0.01) },
			70, 500_000, ilp.StatusInfeasible, 161, 81, 293_000},
		// WordNet Nouns at the golden θ: the budget runs out first.
		// 638 050 574 terms under full rescans, 70 863 832 now.
		{"nouns-1pct-theta55", func() *matrix.View { return datagen.WordNetNouns(0.01) },
			55, 50_000, ilp.StatusUnknown, 50_001, 14_621, 78_000_000},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := &Problem{View: c.view(), Rule: rules.CovRule(), K: 2, Theta1: c.theta1, Theta2: 100}
			enc, err := Encode(p, EncodeOptions{SymmetryBreaking: true})
			if err != nil {
				t.Fatal(err)
			}
			r := ilp.SolvePB(enc.Model, ilp.Options{MaxDecisions: c.budget})
			t.Logf("status=%v %+v", r.Status, r.Stats)
			if r.Status != c.status || r.Stats.Decisions != c.decisions || r.Stats.Conflicts != c.conflicts {
				t.Fatalf("search tree changed: status=%v decisions=%d conflicts=%d, want %v/%d/%d",
					r.Status, r.Stats.Decisions, r.Stats.Conflicts, c.status, c.decisions, c.conflicts)
			}
			if r.Stats.TermScans > c.maxTerms {
				t.Fatalf("propagation examined %d terms, ceiling %d", r.Stats.TermScans, c.maxTerms)
			}
		})
	}
}
